package campaign

import (
	"context"
	"encoding/json"
	"fmt"

	"twmarch/internal/diagnose"
	"twmarch/internal/ecc"
	"twmarch/internal/faults"
	"twmarch/internal/faultsim"
	"twmarch/internal/repair"
	"twmarch/internal/word"
)

// Pipeline limits enforced by Spec.Validate. Like the grid limits,
// they bound what a network-submitted spec can ask of the engine.
const (
	// MaxSpares bounds the spare rows and spare columns a pipeline may
	// configure per memory: repair allocation walks every (spare ×
	// suspect) combination, so an absurd budget must be rejected up
	// front.
	MaxSpares = 64
	// MaxSyndromeCap bounds PipelineSpec.MaxSyndrome: the diagnostic
	// mismatch log is retained in memory for every analyzed fault, so
	// the per-run cap itself must be capped.
	MaxSyndromeCap = 1 << 16
	// DefaultMaxSyndrome is the diagnostic-log cap applied when the
	// pipeline block leaves MaxSyndrome zero. It is large enough to
	// localize multi-cell defects on the grid geometries the engine
	// accepts while keeping a single run's log bounded.
	DefaultMaxSyndrome = 4096
)

// ECC model names accepted in PipelineSpec.ECC.
const (
	// ECCNone disables field-ECC modeling (the default).
	ECCNone = "none"
	// ECCSEC models a per-word Hamming single-error-correcting code.
	ECCSEC = "sec"
	// ECCSECDED models a per-word extended Hamming code: single errors
	// corrected, double errors detected.
	ECCSECDED = "secded"
)

// PipelineSpec is the "pipeline" block of a campaign spec: it enables
// the diagnosis-and-repair stage that runs downstream of detection.
// For every fault the stage collects the comparator-view mismatch
// syndrome, diagnoses the suspect sites (internal/diagnose), allocates
// spare rows/columns for detected faults (internal/repair), and models
// field ECC for test escapes (internal/ecc). The per-cell outcome
// lands in CellResult.Yield and is folded into the aggregate's yield
// section.
type PipelineSpec struct {
	// Enabled turns the stage on; a nil or disabled block leaves the
	// campaign identical to a plain detection run.
	Enabled bool `json:"enabled"`
	// SpareRows and SpareCols are the redundancy budget per memory:
	// how many spare word lines and bit lines the repair allocator may
	// spend on one faulty cell. Both default to zero (no redundancy,
	// every detected fault is unrepairable).
	SpareRows int `json:"spare_rows,omitempty"`
	SpareCols int `json:"spare_cols,omitempty"`
	// ECC selects the field error-correction model applied to test
	// escapes: "none" (default), "sec", or "secded".
	ECC string `json:"ecc,omitempty"`
	// MaxSyndrome caps the recorded mismatch log per diagnostic run;
	// 0 means DefaultMaxSyndrome. Diagnoses from capped logs are
	// counted in YieldStats.TruncatedSyndromes.
	MaxSyndrome int `json:"max_syndrome,omitempty"`
}

// On reports whether the pipeline stage is configured and enabled.
// It is nil-safe: specs without a pipeline block read as off.
func (p *PipelineSpec) On() bool { return p != nil && p.Enabled }

// maxSyndrome returns the effective diagnostic-log cap.
func (p *PipelineSpec) maxSyndrome() int {
	if p.MaxSyndrome == 0 {
		return DefaultMaxSyndrome
	}
	return p.MaxSyndrome
}

// validate checks the pipeline block against its limits and verifies
// that the selected ECC code exists for every word width in the grid.
// A nil or disabled block is always valid.
func (p *PipelineSpec) validate(widths []int) error {
	if !p.On() {
		return nil
	}
	if p.SpareRows < 0 || p.SpareRows > MaxSpares {
		return fmt.Errorf("campaign: pipeline spare_rows %d out of range [0, %d]", p.SpareRows, MaxSpares)
	}
	if p.SpareCols < 0 || p.SpareCols > MaxSpares {
		return fmt.Errorf("campaign: pipeline spare_cols %d out of range [0, %d]", p.SpareCols, MaxSpares)
	}
	if p.MaxSyndrome < 0 || p.MaxSyndrome > MaxSyndromeCap {
		return fmt.Errorf("campaign: pipeline max_syndrome %d out of range [0, %d]", p.MaxSyndrome, MaxSyndromeCap)
	}
	switch p.ECC {
	case "", ECCNone:
	case ECCSEC, ECCSECDED:
		for _, w := range widths {
			if _, err := ecc.NewHamming(w, p.ECC == ECCSECDED); err != nil {
				return fmt.Errorf("campaign: pipeline ecc %q at width %d: %v", p.ECC, w, err)
			}
		}
	default:
		return fmt.Errorf("campaign: unknown pipeline ecc %q", p.ECC)
	}
	return nil
}

// codec builds the cell's field-ECC codec, or nil when ECC modeling is
// off.
func (p *PipelineSpec) codec(width int) (*ecc.Hamming, error) {
	switch p.ECC {
	case "", ECCNone:
		return nil, nil
	case ECCSEC, ECCSECDED:
		return ecc.NewHamming(width, p.ECC == ECCSECDED)
	default:
		return nil, fmt.Errorf("campaign: unknown pipeline ecc %q", p.ECC)
	}
}

// YieldStats is the folded outcome of the diagnosis-and-repair
// pipeline over a set of faults — one cell's, one scheme's, or the
// whole grid's. All fields are integer tallies so folding is exact and
// deterministic; the derived rates are emitted alongside them in JSON.
//
// Invariants: Detected + Escapes == Analyzed, Repairable +
// Unrepairable + NoSyndrome == Detected, and the ByDiagClass counts
// sum to Detected - NoSyndrome.
type YieldStats struct {
	// Analyzed counts the faults run through the pipeline.
	Analyzed int `json:"analyzed"`
	// Detected counts faults the cell's detection mode flagged;
	// Escapes counts those it missed (they ship to the field).
	Detected int `json:"detected"`
	Escapes  int `json:"escapes"`
	// ByDiagClass histograms the diagnosed fault families (the
	// diagnose.Class labels) over the detected faults.
	ByDiagClass map[string]int `json:"by_diag_class,omitempty"`
	// NoSyndrome counts detected faults whose comparator-view log was
	// empty (a signature-mode anomaly); diagnosis is short-circuited
	// for them.
	NoSyndrome int `json:"no_syndrome,omitempty"`
	// Repairable counts detected faults whose suspect sites fit the
	// spare budget; Unrepairable counts those that exhaust it (yield
	// loss: the part is discarded).
	Repairable   int `json:"repairable"`
	Unrepairable int `json:"unrepairable"`
	// SpareRowsUsed and SpareColsUsed total the spares committed
	// across the repairable plans. An unrepairable allocation is
	// rolled back — the part is discarded, not partially repaired —
	// so its assignment contributes nothing here.
	SpareRowsUsed int `json:"spare_rows_used"`
	SpareColsUsed int `json:"spare_cols_used"`
	// ECCCorrected counts escapes the field ECC corrects (at most one
	// corrupted bit per word — escape-free in the field); ECCDetected
	// counts escapes a SEC-DED code at least flags (two bits in one
	// word). The remaining escapes corrupt data silently.
	ECCCorrected int `json:"ecc_corrected"`
	ECCDetected  int `json:"ecc_detected"`
	// TruncatedSyndromes counts diagnostic runs whose mismatch log hit
	// the MaxSyndrome cap, making their diagnosis potentially partial.
	TruncatedSyndromes int `json:"truncated_syndromes,omitempty"`
}

// RepairabilityRate returns the fraction of detected faults the spare
// budget repairs (1 when nothing was detected).
func (y *YieldStats) RepairabilityRate() float64 {
	if y.Detected == 0 {
		return 1
	}
	return float64(y.Repairable) / float64(y.Detected)
}

// EscapeRate returns the fraction of analyzed faults the test missed
// (0 for an empty population).
func (y *YieldStats) EscapeRate() float64 {
	if y.Analyzed == 0 {
		return 0
	}
	return float64(y.Escapes) / float64(y.Analyzed)
}

// PostECCEscapeRate returns the escape rate after field ECC: escaped
// faults the per-word code corrects no longer corrupt data, so only
// the uncorrected escapes count.
func (y *YieldStats) PostECCEscapeRate() float64 {
	if y.Analyzed == 0 {
		return 0
	}
	return float64(y.Escapes-y.ECCCorrected) / float64(y.Analyzed)
}

// SpareUtilization returns the fraction of the offered spare budget
// the committed repairs actually spent: spares used over (repairable
// plans × per-memory budget). Unrepairable parts are discarded with
// their allocations rolled back, so they count in neither numerator
// nor denominator. 0 when nothing was repaired or no spares were
// offered.
func (y *YieldStats) SpareUtilization(spareRows, spareCols int) float64 {
	budget := spareRows + spareCols
	if y.Repairable == 0 || budget <= 0 {
		return 0
	}
	return float64(y.SpareRowsUsed+y.SpareColsUsed) / float64(y.Repairable*budget)
}

// merge folds o into y.
func (y *YieldStats) merge(o *YieldStats) {
	y.Analyzed += o.Analyzed
	y.Detected += o.Detected
	y.Escapes += o.Escapes
	y.NoSyndrome += o.NoSyndrome
	y.Repairable += o.Repairable
	y.Unrepairable += o.Unrepairable
	y.SpareRowsUsed += o.SpareRowsUsed
	y.SpareColsUsed += o.SpareColsUsed
	y.ECCCorrected += o.ECCCorrected
	y.ECCDetected += o.ECCDetected
	y.TruncatedSyndromes += o.TruncatedSyndromes
	for cls, n := range o.ByDiagClass {
		if y.ByDiagClass == nil {
			y.ByDiagClass = make(map[string]int)
		}
		y.ByDiagClass[cls] += n
	}
}

// MarshalJSON emits the integer tallies together with the derived
// rates, so aggregate consumers (cmd/twmd clients, scripts) get the
// headline yield numbers without recomputing them. The output is a
// pure function of the tallies — safe for the canonical encoding.
func (y *YieldStats) MarshalJSON() ([]byte, error) {
	type alias YieldStats
	return json.Marshal(struct {
		*alias
		RepairabilityRate float64 `json:"repairability_rate"`
		EscapeRate        float64 `json:"escape_rate"`
		PostECCEscapeRate float64 `json:"post_ecc_escape_rate"`
	}{(*alias)(y), y.RepairabilityRate(), y.EscapeRate(), y.PostECCEscapeRate()})
}

// simulatePipeline is the per-fault campaign loop with the pipeline
// stage enabled. It replaces the batched detection loop of
// simulateCell: every fault is detected, diagnosed from its
// comparator-view syndrome, fed to the repair allocator when
// detected, and classified against the field-ECC model when it
// escaped. Results are a pure function of (spec, cell, fault list) —
// diagnosis, allocation and ECC classification are all deterministic —
// so the byte-identical aggregate guarantee holds unchanged.
func simulatePipeline(ctx context.Context, spec Spec, c Cell, ct *compiledTest, cfg faultsim.Campaign, list []faults.Fault, res *CellResult) {
	p := spec.Pipeline
	y := &YieldStats{ByDiagClass: make(map[string]int)}
	codec, err := p.codec(c.Width)
	if err != nil {
		res.Err = err.Error()
		return
	}
	maxSyn := p.maxSyndrome()
	// Signature-mode detection goes through the cell's reference —
	// the shared compiled program bound to the cell, one lane replay
	// per LaneWidth faults — unless the spec forces the naive path
	// (ref stays nil); the diagnostic Syndrome re-run below stays a
	// full comparator-view execution either way. Compare-mode cells
	// take detection from the Syndrome result.
	var ref *faultsim.Reference
	if c.Mode == ModeSignature && !spec.Naive {
		if ref, err = ct.bind(c.Words, c.Seed); err != nil {
			res.Err = err.Error()
			return
		}
	}
	var verdicts uint64 // the lane verdicts of the chunk holding fault i
	for i, f := range list {
		// The per-fault loop observes cancellation with the same
		// bounded latency as the batched path.
		if i%512 == 0 && ctx.Err() != nil {
			res.Err = ctx.Err().Error()
			return
		}
		var det bool
		var syn *diagnose.Report
		truncated := false
		if c.Mode == ModeSignature {
			// Signature detection first; the diagnostic re-run (a real
			// BIST would switch the comparator on and replay) happens
			// only for flagged faults.
			if ref == nil {
				det, err = faultsim.Detects(cfg, f)
			} else {
				if i%faultsim.LaneWidth == 0 {
					verdicts, err = ref.DetectLane(list[i:min(i+faultsim.LaneWidth, len(list))])
				}
				det = verdicts>>uint(i%faultsim.LaneWidth)&1 == 1
			}
			if err != nil {
				res.Err = err.Error()
				return
			}
			if det {
				r, err := faultsim.Syndrome(cfg, f, maxSyn)
				if err != nil {
					res.Err = err.Error()
					return
				}
				syn = diagnose.Analyze(r, c.Width)
				truncated = r.MismatchCount > len(r.Mismatches)
			}
		} else {
			r, err := faultsim.Syndrome(cfg, f, maxSyn)
			if err != nil {
				res.Err = err.Error()
				return
			}
			det = r.Detected()
			if det {
				syn = diagnose.Analyze(r, c.Width)
				truncated = r.MismatchCount > len(r.Mismatches)
			}
		}

		res.Faults++
		cc := res.ByClass[f.Class()]
		cc.Total++
		y.Analyzed++
		if !det {
			res.ByClass[f.Class()] = cc
			y.Escapes++
			if codec != nil {
				switch eccOutcome(codec, f) {
				case ecc.Corrected:
					y.ECCCorrected++
				case ecc.DoubleError:
					y.ECCDetected++
				}
			}
			continue
		}
		res.Detected++
		cc.Detected++
		res.ByClass[f.Class()] = cc
		y.Detected++
		if truncated {
			y.TruncatedSyndromes++
		}
		// An empty mismatch log carries no localization information:
		// short-circuit diagnosis and repair rather than feeding the
		// allocator a vacuous site list.
		if syn == nil || syn.Class == diagnose.NoFault {
			y.NoSyndrome++
			continue
		}
		y.ByDiagClass[syn.Class.String()]++
		plan, err := repair.Allocate(syn.Sites, p.SpareRows, p.SpareCols)
		if err != nil {
			res.Err = err.Error()
			return
		}
		if plan.Repairable {
			y.Repairable++
			y.SpareRowsUsed += len(plan.Assignment.Rows)
			y.SpareColsUsed += len(plan.Assignment.Cols)
		} else {
			y.Unrepairable++
		}
	}
	if len(y.ByDiagClass) == 0 {
		y.ByDiagClass = nil
	}
	res.Yield = y
}

// eccOutcome classifies what a per-word ECC does with a test escape in
// the field, from the fault's ground-truth victim footprint:
//
//   - at most one corruptible bit per word: the code corrects every
//     failure the fault can cause (verified against the actual codec,
//     not assumed) — ecc.Corrected;
//   - exactly two bits in some word under SEC-DED: the code flags the
//     corruption but cannot fix it — ecc.DoubleError;
//   - anything else, including address-decoder faults (which return a
//     valid codeword from the wrong address and are invisible to any
//     per-word code) — ecc.Uncorrectable.
func eccOutcome(codec *ecc.Hamming, f faults.Fault) ecc.Status {
	sites, ok := faults.VictimSites(f)
	if !ok {
		return ecc.Uncorrectable
	}
	perWord := make(map[int]map[int]bool)
	worst := 0
	for _, s := range sites {
		bits := perWord[s.Addr]
		if bits == nil {
			bits = make(map[int]bool)
			perWord[s.Addr] = bits
		}
		bits[s.Bit] = true
		if len(bits) > worst {
			worst = len(bits)
		}
	}
	switch {
	case worst <= 1:
		// Confirm correctability on the real codec: flip the victim's
		// stored data bit in a codeword and require Decode to fix it.
		for _, s := range sites {
			if s.Bit >= codec.DataWidth() {
				return ecc.Uncorrectable
			}
			stored := codec.DataBitPositions()[s.Bit]
			_, _, status, fixed := codec.Decode(codec.Encode(word.Zero).FlipBit(stored))
			if status != ecc.Corrected || fixed != stored {
				return ecc.Uncorrectable
			}
		}
		return ecc.Corrected
	case worst == 2 && codec.Extended():
		return ecc.DoubleError
	default:
		return ecc.Uncorrectable
	}
}
