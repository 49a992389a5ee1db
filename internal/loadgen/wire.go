package loadgen

import (
	"time"

	"speakup/internal/core"
	"speakup/internal/wire"
)

// wireClient returns the client's persistent wire connection, dialing
// (or re-dialing after a failure) on demand. All of one client's
// in-flight requests multiplex over the same connection, the way its
// HTTP requests share one http.Client.
func (c *Client) wireClient() (*wire.Client, error) {
	c.wireMu.Lock()
	defer c.wireMu.Unlock()
	if c.wire != nil && c.wire.Err() == nil {
		return c.wire, nil
	}
	wc, err := wire.Dial(c.cfg.WireAddr)
	if err != nil {
		return nil, err
	}
	c.wire = wc
	return wc, nil
}

// dropWire discards a failed connection so the next request re-dials.
func (c *Client) dropWire(wc *wire.Client) {
	wc.Close()
	c.wireMu.Lock()
	if c.wire == wc {
		c.wire = nil
	}
	c.wireMu.Unlock()
}

func (c *Client) closeWire() {
	c.wireMu.Lock()
	wc := c.wire
	c.wire = nil
	c.wireMu.Unlock()
	if wc != nil {
		wc.Close()
	}
}

// doRequestWire walks the speak-up protocol once over the binary
// transport, mirroring the HTTP path's semantics and classification:
// ADMIT is a 200, EVICT a retryable 503, SHED a retryable 503 with a
// 1s Retry-After, REJECT a non-retryable 409, and any connection
// failure a retryable transport error. Payment streams as CREDIT
// frames shaped by the same token bucket that paces HTTP POSTs, and a
// strategy's zero post size defects the same way: payment stops while
// the opened request camps on its bid.
func (c *Client) doRequestWire(id core.RequestID) (served bool, paid int64, retry bool, retryAfter time.Duration) {
	wc, err := c.wireClient()
	if err != nil {
		return false, 0, true, 0
	}
	// The OPEN costs a little upload budget, like the HTTP GETs.
	c.bucket.Take(200)
	res, err := wc.Open(id)
	if err != nil {
		c.dropWire(wc)
		return false, 0, true, 0
	}
	var deadline <-chan time.Time
	if c.cfg.RequestTimeout > 0 {
		t := time.NewTimer(c.cfg.RequestTimeout)
		defer t.Stop()
		deadline = t.C
	}
	var paidN int64
	finish := func(r wire.Result) (bool, int64, bool, time.Duration) {
		switch r.Status {
		case wire.StatusAdmitted:
			return true, paidN, false, 0
		case wire.StatusEvicted:
			return false, paidN, true, 0
		case wire.StatusShed:
			return false, paidN, true, time.Second
		case wire.StatusRejected:
			return false, paidN, false, 0
		default: // connection failure before a verdict
			c.dropWire(wc)
			return false, paidN, true, 0
		}
	}
	defect := false
	burstLeft := 0
	for {
		if defect {
			// Defected: no more payment, just await the verdict.
			select {
			case r := <-res:
				return finish(r)
			case <-c.stop:
				wc.CloseChannel(id)
				return false, paidN, false, 0
			case <-deadline:
				wc.CloseChannel(id)
				return false, paidN, true, 0
			}
		}
		select {
		case r := <-res:
			return finish(r)
		case <-c.stop:
			wc.CloseChannel(id)
			return false, paidN, false, 0
		case <-deadline:
			wc.CloseChannel(id)
			return false, paidN, true, 0
		default:
		}
		if burstLeft == 0 {
			// One burst is the analog of one payment POST: sized by the
			// strategy (zero defects).
			size := c.cfg.Strategy.PostSize(c.now(), paidN, c.cfg.PostBytes)
			if size <= 0 {
				defect = true
				continue
			}
			burstLeft = size
		}
		chunk := min(burstLeft, 16<<10)
		c.bucket.Take(chunk)
		if err := wc.Credit(id, chunk); err != nil {
			c.dropWire(wc)
			return false, paidN, true, 0
		}
		paidN += int64(chunk)
		c.Stats.PaidBytes.Add(int64(chunk))
		burstLeft -= chunk
	}
}
