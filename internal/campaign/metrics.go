package campaign

// Engine metrics on the process-default obs registry. Instrumentation
// here is on the per-cell granularity — one counter increment and one
// histogram observation per simulated cell, plus a cache tally per
// fault-list and per program lookup — so the per-fault simulation hot
// path inside faultsim is untouched.

import "twmarch/internal/obs"

var (
	metCells = obs.NewCounter("twm_engine_cells_total",
		"grid cells simulated to completion (local engine, worker, or cluster lease)").With()
	metCellErrors = obs.NewCounter("twm_engine_cell_errors_total",
		"simulated cells that finished with a per-cell error").With()
	metCellDur = obs.NewHistogram("twm_engine_cell_duration_seconds",
		"wall-clock simulation time per grid cell", nil).With()
	metCacheHits = obs.NewCounter("twm_engine_fault_cache_hits_total",
		"fault-list lookups served from the per-geometry cache").With()
	metCacheMisses = obs.NewCounter("twm_engine_fault_cache_misses_total",
		"fault-list lookups that enumerated the population").With()
	metProgramHits = obs.NewCounter("twm_engine_program_cache_hits_total",
		"cells whose compiled test program came from the process-wide table").With()
	metProgramMisses = obs.NewCounter("twm_engine_program_cache_misses_total",
		"cells that transformed and compiled their test program").With()
	metActiveWorkers = obs.NewGauge("twm_engine_active_workers",
		"engine pool goroutines currently simulating").With()
)
