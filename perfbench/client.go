package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// client is the load generator's single control-plane client: one
// keep-alive connection over loopback, one request in flight (closed loop).
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	body bytes.Buffer
}

func newClient(addr net.Addr) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{
		base: "http://" + addr.String(),
		hc:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
		tr:   tr,
	}
}

// do sends one request and reads the whole response into c.body. The
// duration runs from send until the last body byte arrived. A transport
// error reports status 0.
func (c *client) do(method, path string, payload []byte) (int, time.Duration, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.body.Reset()
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, d, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, d, nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// opLog counts attempted and failed operations, failures by status code
// (0 for a transport error).
type opLog struct {
	attempted int
	failed    int
	byCode    map[string]int
	firstErr  string
}

func (l *opLog) record(op string, status int, err error) bool {
	l.attempted++
	if err == nil && status >= 200 && status < 300 {
		return true
	}
	l.failed++
	if l.byCode == nil {
		l.byCode = make(map[string]int)
	}
	l.byCode[op+":"+strconv.Itoa(status)]++
	if l.firstErr == "" {
		if err != nil {
			l.firstErr = fmt.Sprintf("%s: %v", op, err)
		} else {
			l.firstErr = fmt.Sprintf("%s: status %d", op, status)
		}
	}
	return false
}
