package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// client is the one closed-loop client: a single keep-alive HTTP/1.1
// connection driven from the calling goroutine. Requests are written as
// pre-encoded bytes and responses parsed in place, so a request costs the
// harness no goroutine hand-off and no request encoding while the clock
// runs.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func newClient(addr string) *client {
	return &client{addr: addr, body: make([]byte, 0, 1<<20)}
}

func (c *client) connect() error {
	c.close()
	conn, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
	if err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.SetNoDelay(true); err != nil {
			conn.Close()
			return err
		}
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 64<<10)
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one pre-encoded request and reads the whole response. The
// returned body aliases the client's buffer and is valid until the next
// call. Any transport error drops the connection; the next call dials
// again.
func (c *client) do(req []byte) (status int, body []byte, err error) {
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return 0, nil, err
		}
	}
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		c.close()
		return 0, nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body, err = readAllInto(c.body[:0], resp.Body)
	resp.Body.Close()
	if err != nil {
		c.close()
		return 0, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, c.body, nil
}

// get is do for a bodiless GET, for the untimed control requests.
func (c *client) get(path string) (int, []byte, error) {
	return c.do(encodeRequest(nil, "GET", path, nil, false))
}

func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// encodeRequest appends one HTTP/1.1 request to dst.
func encodeRequest(dst []byte, method, path string, body []byte, trace bool) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\n"...)
	if trace {
		dst = append(dst, "X-Trace: 1\r\n"...)
	}
	if method == "POST" {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

// expect200 turns a non-200 control response into an error.
func expect200(what string, status int, body []byte, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", what, status, truncate(body, 200))
	}
	return nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
