package warehouse

import "twmarch/internal/obs"

// Warehouse metrics, registered against the process-default registry
// so cmd/twmd's /metrics surface exports them without extra wiring.
// They account for the index's write, read, snapshot and repair
// paths.
var (
	metInserts = obs.NewCounter("twm_warehouse_inserts_total",
		"cell records inserted into the warehouse index").With()
	metDeletes = obs.NewCounter("twm_warehouse_deletes_total",
		"cell records deleted from the warehouse index").With()
	metQueries = obs.NewCounter("twm_warehouse_queries_total",
		"warehouse range/point queries served").With()
	metQueryResults = obs.NewCounter("twm_warehouse_query_results_total",
		"cell records returned by warehouse queries").With()
	metCheckpoints = obs.NewCounter("twm_warehouse_checkpoints_total",
		"warehouse snapshots written (Close, Checkpoint, RebuildFromWAL)").With()
	metRebuilds = obs.NewCounter("twm_warehouse_rebuilds_total",
		"full index rebuilds from the jobstore WALs, plus snapshots discarded at open as torn, foreign or outdated").With()
	metReconcileRemoved = obs.NewCounter("twm_warehouse_reconcile_removed_total",
		"indexed jobs dropped by startup reconciliation (absent or non-terminal in the jobstore)").With()
	metReconcileRepaired = obs.NewCounter("twm_warehouse_reconcile_repaired_total",
		"jobs re-indexed by startup reconciliation (index records differ from the WAL)").With()
	metJobs = obs.NewGauge("twm_warehouse_jobs",
		"distinct jobs currently indexed in the warehouse").With()
)
