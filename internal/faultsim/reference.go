package faultsim

import (
	"fmt"
	"sync"

	"twmarch/internal/memory"
	"twmarch/internal/word"
)

// Reference is the precomputed fault-free context of a campaign
// configuration: a compiled Program (the march and, in Signature mode,
// the prediction test) bound to the configuration's initial memory
// contents. Detects allocates a fresh memory, re-randomizes it and
// re-walks the whole march for every fault; a Reference does that
// fault-free work once and evaluates faults against it through the
// bit-parallel lane replay (DetectLane, RunLanes), up to LaneWidth
// faults per pass on a pooled arena.
//
// The replay performs the same access sequence against each faulty
// machine as the naive path — including the initial-snapshot reads
// both march.Run passes issue — so faults with read side effects
// (dynamic faults) and address-decoder faults see bit-identical
// stimuli, and the verdicts match Detects exactly. The equivalence
// suite asserts this over the full fault catalog, through a scalar
// one-fault-per-replay oracle that lives with the tests.
//
// All state is read-only after construction; the arena pool makes
// concurrent DetectLane calls safe.
type Reference struct {
	prog    *Program
	words   int
	width   int
	mode    DetectMode
	initial []word.Word

	// pool holds the lane arenas of the reference's shape, shared
	// with every other reference of that shape (see poolFor).
	pool *sync.Pool
}

// arenaShape is everything a pooled lane arena's buffers depend on:
// the memory geometry and, for the MISR state, the detection mode. An
// arena carries nothing of the reference it last served into the next
// checkout — laneArena.reset rebuilds the contents, fault masks, hooks
// and verdicts — so the references of one shape, whatever their
// program or seed, share one pool.
type arenaShape struct {
	words, width int
	mode         DetectMode
}

// newArenaPool returns a pool of lane arenas of shape s. Its New
// function captures only the shape, never a reference.
func newArenaPool(s arenaShape) *sync.Pool {
	return &sync.Pool{New: func() any { return newLaneArena(s.words, s.width, s.mode) }}
}

// maxArenaShapes bounds the process-wide pool table, so a sweep over
// many memory sizes cannot grow it without limit. Campaign grids bind
// a few dozen shapes; a reference whose shape finds the table full
// gets a pool of its own, which lives and dies with it.
const maxArenaShapes = 256

// shapePools is the process-wide table of arena pools by shape. Every
// campaign cell binds a fresh Reference; keyed by shape, its arenas
// come warm from the cells before it instead of being built anew.
var shapePools struct {
	mu sync.Mutex
	m  map[arenaShape]*sync.Pool
}

// poolFor returns the shared pool of shape s, entering it in the
// table while it has room.
func poolFor(s arenaShape) *sync.Pool {
	shapePools.mu.Lock()
	defer shapePools.mu.Unlock()
	if p, ok := shapePools.m[s]; ok {
		return p
	}
	p := newArenaPool(s)
	if len(shapePools.m) < maxArenaShapes {
		if shapePools.m == nil {
			shapePools.m = make(map[arenaShape]*sync.Pool)
		}
		shapePools.m[s] = p
	}
	return p
}

// NewReference precomputes the fault-free reference for the campaign
// configuration: it compiles the test (Compile) and binds the program
// to the campaign's initial contents. Signature mode requires a
// transparent test (the prediction derivation) and a tabulated MISR
// polynomial for the width, mirroring the per-fault errors of the
// naive path.
func NewReference(c Campaign) (*Reference, error) {
	if c.Test == nil {
		return nil, fmt.Errorf("faultsim: campaign has no test")
	}
	if c.Test.Width != c.Width {
		return nil, fmt.Errorf("faultsim: test width %d != campaign width %d", c.Test.Width, c.Width)
	}
	mem, err := c.newMemory()
	if err != nil {
		return nil, err
	}
	p, err := Compile(c.Test, c.Mode)
	if err != nil {
		return nil, err
	}
	return p.bind(mem), nil
}

// bind builds the program's Reference over mem's current contents.
func (p *Program) bind(mem *memory.Memory) *Reference {
	r := &Reference{
		prog:    p,
		words:   mem.Words(),
		width:   p.width,
		mode:    p.mode,
		initial: mem.Snapshot(),
	}
	r.pool = poolFor(arenaShape{words: r.words, width: r.width, mode: r.mode})
	return r
}
