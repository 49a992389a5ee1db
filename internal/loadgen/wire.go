package loadgen

import (
	"context"
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

// exchangeWire walks the speak-up protocol once over the binary
// transport, with the HTTP path's outcomes: ADMIT serves, EVICT,
// REJECT and a connection failure fail, and SHED fails with the HTTP
// front's 1 s Retry-After. Payment streams as CREDIT frames shaped by
// the same token bucket that paces HTTP POSTs, and a strategy's zero
// post size defects the same way: payment stops while the opened
// request camps on its bid. An ended context (a deadline or Stop)
// closes the channel.
func (c *Client) exchangeWire(ctx context.Context, id core.RequestID) result {
	wc, err := c.wireClient()
	if err != nil {
		return result{}
	}
	// The OPEN costs a little upload budget, like the HTTP GETs.
	c.bucket.Take(200)
	res, err := wc.Open(id)
	if err != nil {
		c.dropWire(wc)
		return result{}
	}
	var paid int64
	verdict := func(r wire.Result) result {
		switch r.Status {
		case wire.StatusAdmitted:
			return result{served: true, paid: paid}
		case wire.StatusShed:
			return result{paid: paid, retryAfter: time.Second}
		case wire.StatusEvicted, wire.StatusRejected:
			return result{paid: paid}
		default: // connection failure before a verdict
			c.dropWire(wc)
			return result{paid: paid}
		}
	}
	abandon := func() result {
		wc.CloseChannel(id)
		return result{paid: paid}
	}
	burstLeft := 0
	for {
		select {
		case r := <-res:
			return verdict(r)
		case <-ctx.Done():
			return abandon()
		default:
		}
		if burstLeft == 0 {
			// One burst is the analog of one payment POST: sized by the
			// strategy (zero defects: no more payment, just await the
			// verdict).
			burstLeft = c.cfg.Strategy.PostSize(c.clock.Now(), paid, c.cfg.PostBytes)
			if burstLeft <= 0 {
				select {
				case r := <-res:
					return verdict(r)
				case <-ctx.Done():
					return abandon()
				}
			}
		}
		chunk := min(burstLeft, 16<<10)
		c.bucket.Take(chunk)
		if err := wc.Credit(id, chunk); err != nil {
			c.dropWire(wc)
			return result{paid: paid}
		}
		paid += int64(chunk)
		c.Stats.PaidBytes.Add(int64(chunk))
		burstLeft -= chunk
	}
}
