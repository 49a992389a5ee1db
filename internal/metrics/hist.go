package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets covers HistBase to HistBase·2³¹ (~50µs to ~30h) in
// power-of-two steps.
const HistBuckets = 32

// HistBase is the upper bound of bucket 0.
const HistBase = 50 * time.Microsecond

// Hist is a lock-free log₂-bucketed latency recorder: Observe is two
// atomic adds, safe from any goroutine, so recording on a server hot
// path never serializes the traffic being measured. Quantiles resolve
// to the upper bound of the matching bucket, capped at Max
// (factor-of-two resolution — plenty for "did p99 blow up"
// questions); Max is exact.
//
// It is the server-side sibling of the load generator's client-side
// latency histogram (internal/loadgen aliases this type), and the
// shape /metrics renders as a Prometheus histogram.
type Hist struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // ns
	maxNs   atomic.Int64 // exact worst sample
}

// HistIndex returns the bucket index for a duration (exported for the
// exposition renderer and tests; bounds are HistBase << index).
func HistIndex(d time.Duration) int {
	if d <= HistBase {
		return 0
	}
	i := bits.Len64(uint64((d - 1) / HistBase)) // ceil(log2(d/base))
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[HistIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Max returns the exact worst sample observed, or 0 with no samples —
// the tail beyond any bucketed quantile, which is what flood-mode
// admission-latency regressions show up in first.
func (h *Hist) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Sum returns the total of all samples.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average sample, or 0 with no samples.
func (h *Hist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sum.Load()) / n)
}

// Bucket returns the count in bucket i (not cumulative).
func (h *Hist) Bucket(i int) uint64 { return h.buckets[i].Load() }

// Quantile returns the upper bound of the bucket containing the p-th
// quantile (0 < p <= 1), capped at the exact Max so no quantile
// reports more than the worst sample, or 0 with no samples.
func (h *Hist) Quantile(p float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	// Nearest-rank with ceiling: p=0.99 over 10 samples must look at
	// the 10th, not the 9th — truncating would hide the worst sample,
	// the one tail quantiles exist to catch.
	rank := uint64(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen uint64
	for i := 0; i < HistBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return min(HistBase<<uint(i), h.Max())
		}
	}
	return min(HistBase<<(HistBuckets-1), h.Max())
}

// LatencyHists are the server-side request-lifecycle latency
// histograms the observability layer records into: how long winners
// waited, how steadily contenders paid, how long an auction costs the
// control path, and how old channels were when the sweep evicted them.
// WaitToAdmit, CreditGap, and TimeToEvict are fed from sampled trace
// records (internal/trace), so they populate only when tracing is on;
// AuctionLatency is fed by the thinner core on every auction. Their
// tags declare them the way registry.go declares the counters.
type LatencyHists struct {
	WaitToAdmit    Hist `prom:"speakup_wait_to_admit_seconds" kind:"histogram" unit:"s" help:"Request arrival to admission (sampled traces)."`
	CreditGap      Hist `prom:"speakup_credit_gap_seconds" kind:"histogram" unit:"s" help:"Interarrival time between payment credits on one channel (sampled traces)."`
	AuctionLatency Hist `prom:"speakup_auction_latency_seconds" kind:"histogram" unit:"s" help:"Wall time of one winner selection and settle."`
	TimeToEvict    Hist `prom:"speakup_time_to_evict_seconds" kind:"histogram" unit:"s" help:"Channel first activity to timeout eviction (sampled traces)."`
}
