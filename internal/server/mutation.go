package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// Mutation endpoints (live mode only). A call returns once its batch is
// published, so the reported epoch — and every snapshot pinned afterward
// — reflects the mutation (read-your-writes). Invalid rectangles are 400;
// mutations against a closed Live are 503.

type insertRequest struct {
	ID  twolayer.ID `json:"id"`
	MBR rectJSON    `json:"mbr"`
}

// deleteRequest has insertRequest's fields. It is a type of its own
// because encoding/json names the type in its error texts.
type deleteRequest insertRequest

type insertResponse struct {
	Epoch     uint64 `json:"epoch"`
	ElapsedUS int64  `json:"elapsed_us"`
}

type deleteResponse struct {
	Found     bool   `json:"found"`
	Epoch     uint64 `json:"epoch"`
	ElapsedUS int64  `json:"elapsed_us"`
}

type bulkMutationJSON struct {
	// Op is "insert" (the default) or "delete".
	Op  string      `json:"op"`
	ID  twolayer.ID `json:"id"`
	MBR rectJSON    `json:"mbr"`
}

type bulkRequest struct {
	Mutations []bulkMutationJSON `json:"mutations"`
}

type bulkResponse struct {
	// Epoch is the snapshot in which the whole batch became visible.
	Epoch uint64 `json:"epoch"`
	// Found has one entry per mutation: whether a delete found its
	// object (true for every insert).
	Found     []bool `json:"found"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// writeMutationError maps a Live submission error to an HTTP status:
// validation failures are the client's fault (400), a closed Live means
// the server is shutting down (503), and a full apply backlog is
// transient overload — 503 with a Retry-After backoff hint so clients
// back off instead of resubmitting into the same wall.
func writeMutationError(w http.ResponseWriter, err error) {
	if errors.Is(err, twolayer.ErrLiveClosed) {
		writeError(w, http.StatusServiceUnavailable, "index is closed for updates")
		return
	}
	if errors.Is(err, twolayer.ErrBacklogFull) {
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable,
			"mutation backlog is full: "+err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	timers := s.metrics.codec["v1/insert"]
	if !decodeRequest(w, r, &req, scanObject[insertRequest], timers.decode) {
		return
	}
	if msg := req.MBR.validate(); msg != "" {
		writeError(w, http.StatusBadRequest, msg)
		return
	}
	release, _, admitted := s.admit(r.Context(), w, classMutate)
	if !admitted {
		return
	}
	defer release()
	start := time.Now()
	epoch, err := s.live.Insert(req.ID, req.MBR.toRect())
	if err != nil {
		writeMutationError(w, err)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	encodeStart := time.Now()
	*buf = appendInsert((*buf)[:0], &insertResponse{
		Epoch:     epoch,
		ElapsedUS: time.Since(start).Microseconds(),
	})
	observeSince(timers.encode, encodeStart)
	writeBody(w, http.StatusOK, *buf)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	timers := s.metrics.codec["v1/delete"]
	if !decodeRequest(w, r, &req, scanObject[deleteRequest], timers.decode) {
		return
	}
	if msg := req.MBR.validate(); msg != "" {
		writeError(w, http.StatusBadRequest, msg)
		return
	}
	release, _, admitted := s.admit(r.Context(), w, classMutate)
	if !admitted {
		return
	}
	defer release()
	start := time.Now()
	found, epoch, err := s.live.Delete(req.ID, req.MBR.toRect())
	if err != nil {
		writeMutationError(w, err)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	encodeStart := time.Now()
	*buf = appendDelete((*buf)[:0], &deleteResponse{
		Found:     found,
		Epoch:     epoch,
		ElapsedUS: time.Since(start).Microseconds(),
	})
	observeSince(timers.encode, encodeStart)
	writeBody(w, http.StatusOK, *buf)
}

func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	var req bulkRequest
	timers := s.metrics.codec["v1/bulk"]
	if !decodeRequest(w, r, &req, scanBulk, timers.decode) {
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, `"mutations" must be non-empty`)
		return
	}
	if len(req.Mutations) > MaxBatchQueries {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("bulk of %d mutations exceeds the maximum of %d",
				len(req.Mutations), MaxBatchQueries))
		return
	}
	muts := make([]twolayer.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		switch m.Op {
		case "", "insert":
		case "delete":
			muts[i].Delete = true
		default:
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf(`mutations[%d]: op must be "insert" or "delete"`, i))
			return
		}
		if msg := m.MBR.validate(); msg != "" {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("mutations[%d]: %s", i, msg))
			return
		}
		muts[i].ID = m.ID
		muts[i].MBR = m.MBR.toRect()
	}
	release, _, admitted := s.admit(r.Context(), w, classMutate)
	if !admitted {
		return
	}
	defer release()
	start := time.Now()
	res, err := s.live.Apply(muts)
	if err != nil {
		writeMutationError(w, err)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	encodeStart := time.Now()
	*buf = appendBulk((*buf)[:0], &bulkResponse{
		Epoch:     res.Epoch,
		Found:     res.Found,
		ElapsedUS: time.Since(start).Microseconds(),
	})
	observeSince(timers.encode, encodeStart)
	writeBody(w, http.StatusOK, *buf)
}
