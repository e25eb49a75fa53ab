package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"
)

// statusRecorder captures the response status for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps h with panic recovery, metrics recording, pprof
// endpoint labels, and structured request logging — the outermost
// middleware of every endpoint.
func (s *Server) instrument(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			elapsed := time.Since(start)
			if p := recover(); p != nil {
				// A panicking handler has not written a response yet
				// (handlers write only as their last step), so 500 here.
				rec.status = http.StatusInternalServerError
				writeError(rec, http.StatusInternalServerError, "internal error")
				s.cfg.Logger.Error("handler panic",
					"endpoint", name, "panic", fmt.Sprint(p))
			}
			s.metrics.observe(name, rec.status, elapsed)
			s.cfg.Logger.Info("request",
				"endpoint", name,
				"method", r.Method,
				"status", rec.status,
				"elapsed", elapsed,
				"remote", r.RemoteAddr)
		}()
		// Label the handler's goroutine so CPU and goroutine profiles
		// (/debug/pprof) attribute samples to endpoints.
		pprof.Do(r.Context(), pprof.Labels("endpoint", name), func(ctx context.Context) {
			h.ServeHTTP(rec, r.WithContext(ctx))
		})
	})
}

// limitBody caps the request body at cfg.MaxBodyBytes; decoding a larger
// body produces *http.MaxBytesError, which decodeJSON maps to 413.
func (s *Server) limitBody(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h.ServeHTTP(w, r)
	})
}

// withTimeout attaches the per-request evaluation deadline to the
// request context. Handlers poll the context and answer 503 when the
// deadline expires mid-query.
func (s *Server) withTimeout(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// errorJSON is the body of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

// writeJSON writes v as json.Encoder would. A value encoding/json
// cannot encode (a NaN or infinite float) is answered with a 500 whose
// body names the reason, never with a status and an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody writes an encoded JSON response with its Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// A failed write means the client is gone; nobody is left to tell.
	_, _ = w.Write(body)
}

// writeEncodeError reports a response that could not be encoded.
func writeEncodeError(w http.ResponseWriter, err error) {
	writeError(w, http.StatusInternalServerError, "encode response: "+err.Error())
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorJSON{Error: msg})
}

// writeTimeout reports a request whose evaluation deadline expired.
func writeTimeout(w http.ResponseWriter) {
	writeError(w, http.StatusServiceUnavailable, "deadline exceeded")
}

// decodeJSON decodes body into v with encoding/json, unknown fields
// rejected. On failure it writes the error response and returns false.
func decodeJSON(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	// Trailing garbage after the JSON value is a malformed request too.
	if dec.More() {
		writeError(w, http.StatusBadRequest, "invalid JSON: trailing data after request object")
		return false
	}
	return true
}
