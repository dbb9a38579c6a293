package obs

import "sync"

// Registry holds a run's metrics: monotonically increasing counters,
// last-write-wins gauges, and min/max/sum histograms. All methods are safe
// for concurrent use and nil-safe (a nil *Registry is the Nop path).
//
// Metric names are dotted lowercase paths ("frontend.cache.hit"); the full
// catalog the pipeline emits is documented in DESIGN.md's Observability
// section. Counter values are deterministic at any worker count whenever the
// underlying quantity is (report counts, cache hits, tokens); histogram and
// gauge *values* carry timings and are not.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*HistStat
}

// HistStat is one histogram's summary statistics.
type HistStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*HistStat{},
	}
}

// Add increments a counter. Nil-safe.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// SetGauge records the latest value of a gauge. Nil-safe.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe folds one sample into a histogram. Nil-safe.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &HistStat{Min: v, Max: v}
		r.hists[name] = h
	}
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	r.mu.Unlock()
}

// Counter returns a counter's current value (0 when absent or nil).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a copy of every counter.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Gauges returns a copy of every gauge.
func (r *Registry) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

// RegistryStats is a point-in-time copy of a registry's metrics — the
// served-stats snapshot a long-running process exposes over its /stats
// endpoint, where there is no finished Trace to export (the full StatsJSON
// shape needs span timings; a server's registry outlives every request).
type RegistryStats struct {
	Counters map[string]int64    `json:"counters"`
	Gauges   map[string]float64  `json:"gauges"`
	Hists    map[string]HistStat `json:"histograms"`
}

// Snapshot copies every metric. Nil-safe: a nil registry snapshots to empty
// (never nil) maps, so the result always marshals to JSON objects.
func (r *Registry) Snapshot() RegistryStats {
	s := RegistryStats{
		Counters: r.Counters(),
		Gauges:   r.Gauges(),
		Hists:    r.Hists(),
	}
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]float64{}
	}
	if s.Hists == nil {
		s.Hists = map[string]HistStat{}
	}
	return s
}

// Hists returns a copy of every histogram's summary.
func (r *Registry) Hists() map[string]HistStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistStat, len(r.hists))
	for k, v := range r.hists {
		out[k] = *v
	}
	return out
}
