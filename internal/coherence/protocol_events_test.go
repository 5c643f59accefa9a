package coherence

import (
	"testing"

	"raccd/internal/mem"
)

// These tests pin that each protocol event fires exactly where expected,
// read from the Stats counters and, for thread migration (which has no
// counter), from the NCRTs on both sides of the move.

func TestTracerRecordsProtocolEvents(t *testing.T) {
	h := tiny(RaCCD)

	h.RegisterRegion(0, mem.Range{Start: 0x8000, Size: 4096})
	h.Access(0, 0x8000, true, 1) // NC fill
	h.Access(0, 0x100, false, 0) // coherent fill
	h.InvalidateNC(0)            // recovery flush of the dirty NC line

	if h.Stats.NCFills != 1 {
		t.Fatalf("NCFills = %d, want 1", h.Stats.NCFills)
	}
	if h.Stats.CohFills != 1 {
		t.Fatalf("CohFills = %d, want 1", h.Stats.CohFills)
	}
	if h.Stats.RecoveryFlushes != 1 || h.Stats.FlushedNC != 1 {
		t.Fatalf("RecoveryFlushes = %d, FlushedNC = %d, want 1 and 1",
			h.Stats.RecoveryFlushes, h.Stats.FlushedNC)
	}
	// The flushed line was dirty: it must have been written back.
	if h.Stats.FlushedNCDirty != 1 || h.Stats.L1Writebacks == 0 {
		t.Fatalf("FlushedNCDirty = %d, L1Writebacks = %d: no writeback for the dirty NC flush",
			h.Stats.FlushedNCDirty, h.Stats.L1Writebacks)
	}
}

func TestTracerRecordsPTFlips(t *testing.T) {
	h := tiny(PT)
	h.Access(0, 0x1000, true, 1)
	h.Access(1, 0x1040, false, 0) // flip
	if h.Stats.PTFlips != 1 {
		t.Fatalf("PTFlips = %d, want 1", h.Stats.PTFlips)
	}
}

func TestTracerRecordsDirRecalls(t *testing.T) {
	h := tiny(FullCoh)
	// Same conflict pattern as TestDirectoryEvictionInvalidatesLLC.
	for _, a := range []mem.Addr{0, 128 * 64, 256 * 64} {
		h.Access(0, a, false, 0)
	}
	if h.Stats.DirVictimRecalls == 0 {
		t.Fatal("no DirVictimRecalls for a directory capacity eviction")
	}
}

func TestTracerRecordsMigration(t *testing.T) {
	h := tiny(RaCCD)
	h.RegisterRegionT(0, 1, mem.Range{Start: 0x8000, Size: 64})
	pa, _ := h.MMU(0).Translate(0x8000)
	if nc, _ := h.NCRT(0).Lookup(pa, 1); !nc {
		t.Fatal("registered region missing from the source NCRT")
	}
	if h.MigrateThread(1, 0, 2) == 0 {
		t.Fatal("migration cost no cycles")
	}
	// The move is from core 0 to core 2: the entry leaves the source and
	// arrives at the destination, and no other core gains it.
	if nc, _ := h.NCRT(0).Lookup(pa, 1); nc {
		t.Fatal("source NCRT still maps the migrated thread's region")
	}
	for c := 1; c < h.Params.Cores; c++ {
		nc, _ := h.NCRT(c).Lookup(pa, 1)
		if want := c == 2; nc != want {
			t.Fatalf("core %d NCRT maps the region = %v, want %v", c, nc, want)
		}
	}
}
