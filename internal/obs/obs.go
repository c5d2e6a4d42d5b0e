// Package obs is the stdlib-only observability layer for the aipan
// pipeline: a leveled, structured (key=value) logger with per-component
// scoping; a concurrency-safe metrics registry (counters, gauges,
// fixed-bucket histograms) exported in the Prometheus text exposition
// format; and lightweight spans that record per-stage wall time into the
// registry and stream to a trace exporter.
//
// Everything is optional and cheap when unused: a nil *Logger is a
// no-op, StartSpan without a Tracer in the context returns a no-op span,
// and instruments default to the process-wide Default() registry so the
// CLI binaries can expose /metrics without plumbing.
package obs

import (
	"math"
	"sync/atomic"
)

// atomicFloat is a float64 with atomic Add/Store/Load, the storage cell
// behind counters, gauges, and histogram sums.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
