package serve

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"asymnvm/internal/arena"
)

// Client is a synchronous protocol client: one request in flight at a
// time per client (spin up several clients for concurrency). Not safe
// for concurrent use.
type Client struct {
	nc     net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	tenant uint16
	nextID uint64
	wbuf   []byte // reused framed-request scratch (client is single-flight)
	rbuf   []byte // reused response payload scratch
	// What Do decodes a response into, and so what it returns lies in: the
	// Founds/Vals vectors and the value bytes.
	resp Response
	vals arena.Arena
}

// Dial connects a client for the given tenant.
func Dial(addr string, tenant uint16) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc), tenant: tenant}, nil
}

// Close severs the connection.
func (c *Client) Close() error { return c.nc.Close() }

// Do sends one request and waits for its response. The request's
// Tenant and ID fields are filled in by the client. The response's Val,
// Founds and Vals lie in buffers the client keeps: they are good until its
// next Do, and a caller that holds on to them longer copies them.
func (c *Client) Do(req Request) (Response, error) {
	c.nextID++
	req.Tenant = c.tenant
	req.ID = c.nextID
	wbuf, err := req.AppendFramed(c.wbuf[:0])
	if err != nil {
		return Response{}, err
	}
	c.wbuf = wbuf[:0]
	if _, err := c.w.Write(wbuf); err != nil {
		return Response{}, err
	}
	if err := c.w.Flush(); err != nil {
		return Response{}, err
	}
	payload, err := ReadFrameInto(c.r, c.rbuf)
	if err != nil {
		return Response{}, err
	}
	if cap(payload) > cap(c.rbuf) {
		c.rbuf = payload[:0]
	}
	c.vals.Reset()
	if err := DecodeResponseInto(&c.resp, payload, &c.vals); err != nil {
		return Response{}, err
	}
	if c.resp.ID != req.ID && c.resp.Status == StatusOK {
		return Response{}, fmt.Errorf("serve: response id %d for request %d", c.resp.ID, req.ID)
	}
	return c.resp, nil
}

// DoRetryMoved sends one request, transparently retrying while the
// server reports StatusMoved — the window where a partition's new home
// is already durable but the serving front-end has not yet run the
// routed operation that refreshes its mapping table. Each retry waits
// the server's RetryAfterNS hint. Any other status (including Overload
// and Breaker, which carry admission semantics the caller may want to
// handle differently) is returned as-is.
func (c *Client) DoRetryMoved(req Request, attempts int) (Response, error) {
	for {
		resp, err := c.Do(req)
		if err != nil || resp.Status != StatusMoved {
			return resp, err
		}
		attempts--
		if attempts <= 0 {
			return resp, nil
		}
		time.Sleep(time.Duration(resp.RetryAfterNS))
	}
}

// Get fetches one key.
func (c *Client) Get(key uint64, budget time.Duration) (Response, error) {
	return c.Do(Request{Op: OpGet, Key: key, BudgetNS: uint64(budget)})
}

// GetStale fetches one key, allowing the server to serve it from a
// mirror replica at most staleEpochs applied transactions behind the
// primary (0 behaves like Get: primary only).
func (c *Client) GetStale(key uint64, staleEpochs uint32, budget time.Duration) (Response, error) {
	return c.Do(Request{Op: OpGet, Key: key, StaleBudget: staleEpochs, BudgetNS: uint64(budget)})
}

// Put stores one key.
func (c *Client) Put(key uint64, val []byte, budget time.Duration) (Response, error) {
	return c.Do(Request{Op: OpPut, Key: key, Val: val, BudgetNS: uint64(budget)})
}

// Tx runs one smallbank transaction with selector r.
func (c *Client) Tx(r uint64, budget time.Duration) (Response, error) {
	return c.Do(Request{Op: OpTx, TxR: r, BudgetNS: uint64(budget)})
}

// Drain flushes the server's structures and waits for replay.
func (c *Client) Drain() (Response, error) { return c.Do(Request{Op: OpDrain}) }

// Ping checks liveness, bypassing admission and the run queue.
func (c *Client) Ping() (Response, error) { return c.Do(Request{Op: OpPing}) }
