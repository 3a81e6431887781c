package tensor

import (
	"sync"
	"testing"
)

func TestArenaGetPutReuse(t *testing.T) {
	a := NewArena()
	buf := a.Get(16)
	if len(buf) != 16 {
		t.Fatalf("Get(16) returned len %d", len(buf))
	}
	for i := range buf {
		buf[i] = float64(i + 1)
	}
	a.Put(buf)
	if n := a.Buffered(); n != 1 {
		t.Fatalf("Buffered = %d after one Put", n)
	}
	again := a.Get(16)
	if &again[0] != &buf[0] {
		t.Fatal("Get did not reuse the parked buffer")
	}
	for i, v := range again {
		if v != 0 {
			t.Fatalf("reused buffer dirty at %d: %v", i, v)
		}
	}
	// Different length must come from a different bucket.
	other := a.Get(8)
	if len(other) != 8 {
		t.Fatalf("Get(8) returned len %d", len(other))
	}
	if n := a.Buffered(); n != 0 {
		t.Fatalf("Buffered = %d after draining", n)
	}
}

func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	buf := a.Get(4)
	if len(buf) != 4 {
		t.Fatalf("nil arena Get(4) returned len %d", len(buf))
	}
	a.Put(buf) // must not panic
	if n := a.Buffered(); n != 0 {
		t.Fatalf("nil arena Buffered = %d", n)
	}
}

func TestArenaZeroLength(t *testing.T) {
	a := NewArena()
	buf := a.Get(0)
	if len(buf) != 0 {
		t.Fatalf("Get(0) returned len %d", len(buf))
	}
	a.Put(buf)
	if n := a.Buffered(); n != 0 {
		t.Fatalf("zero-length buffer was parked: Buffered = %d", n)
	}
}

// TestArenaConcurrent exercises the pool under parallel checkout/return,
// mirroring serve workers sharing one server-owned arena. Run with -race.
func TestArenaConcurrent(t *testing.T) {
	a := NewArena()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 8 << (uint(i+w) % 3)
				buf := a.Get(n)
				for j := range buf {
					if buf[j] != 0 {
						t.Errorf("dirty buffer from concurrent Get")
						return
					}
					buf[j] = float64(w)
				}
				a.Put(buf)
			}
		}(w)
	}
	wg.Wait()
}

// TestArenaParkedBytesBounded pins the two halves of the leak fix: buffers
// of different lengths share power-of-two buckets (exact-length buckets
// parked one buffer per distinct batch shape, forever), and what a pool
// parks never exceeds arenaParkFactor × its peak payload.
func TestArenaParkedBytesBounded(t *testing.T) {
	a := NewArena()
	for i := 0; i < 1000; i++ {
		buf := a.Get32(50_000 + 61*i)
		for j, v := range buf {
			if v != 0 {
				t.Fatalf("length %d: dirty at %d", len(buf), j)
			}
		}
		buf[0], buf[len(buf)-1] = 1, 1
		a.Put32(buf)
	}
	s := a.Stats().F32
	if s.BucketHits < 990 {
		t.Errorf("1000 distinct lengths hit only %d times; shapes are not sharing buckets", s.BucketHits)
	}
	if n := a.Buffered(); n > 4 {
		t.Errorf("%d buffers parked after cycling one buffer at a time", n)
	}
	if s.ParkedBytes == 0 || s.ParkedBytes > arenaParkFactor*s.PeakBytes {
		t.Errorf("parked %d bytes, bound %d×%d", s.ParkedBytes, arenaParkFactor, s.PeakBytes)
	}

	// A repeated shape is served from the pool.
	a.Put32(a.Get32(50_000))
	if got := a.Stats().F32.BucketHits; got != s.BucketHits+1 {
		t.Errorf("repeated shape missed: hits %d → %d", s.BucketHits, got)
	}

	// Feeding the pool buffers it never lent out cannot grow it past the
	// bound: the excess is dropped for the GC.
	for i := 0; i < 64; i++ {
		a.Put32(make([]float32, 1<<17))
	}
	s = a.Stats().F32
	if s.ParkedBytes > arenaParkFactor*s.PeakBytes {
		t.Errorf("parked %d bytes past the bound %d×%d", s.ParkedBytes, arenaParkFactor, s.PeakBytes)
	}
	if s.InUseBytes != 0 {
		t.Errorf("foreign puts drove in-use to %d", s.InUseBytes)
	}
}
