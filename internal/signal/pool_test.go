package signal

import "testing"

// TestFreeListRoundTrip pins the free-list contract: a cold list
// constructs through New, a returned value is recycled LIFO, and the
// steady-state Get/Put cycle performs zero heap allocations — the
// property the per-packet pipelines rely on for deterministic
// allocation counts.
func TestFreeListRoundTrip(t *testing.T) {
	made := 0
	l := FreeList[*int]{New: func() *int { made++; return new(int) }}
	a := l.Get()
	if made != 1 {
		t.Fatalf("cold Get made %d values, want 1", made)
	}
	l.Put(a)
	if b := l.Get(); b != a {
		t.Fatalf("Get after Put returned a different value")
	}
	if made != 1 {
		t.Fatalf("warm Get made a new value (%d total), want recycled", made)
	}
	l.Put(a)
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("warm Get/Put cycle: %v allocs/op, want 0", n)
	}
}

// TestFreeListCap pins that Put drops values beyond the bound (default
// 16, or Cap when set) instead of growing without limit.
func TestFreeListCap(t *testing.T) {
	made := 0
	l := FreeList[*int]{New: func() *int { made++; return new(int) }, Cap: 2}
	vals := []*int{l.Get(), l.Get(), l.Get()}
	for _, v := range vals {
		l.Put(v)
	}
	if got := len(l.free); got != 2 {
		t.Fatalf("list retains %d values, want Cap=2", got)
	}

	var d FreeList[*int]
	d.New = func() *int { return new(int) }
	for i := 0; i < 20; i++ {
		d.Put(new(int))
	}
	if got := len(d.free); got != 16 {
		t.Fatalf("default-cap list retains %d values, want 16", got)
	}
}

func TestArenaComplexUninit(t *testing.T) {
	a := GetArena()
	b := a.ComplexUninit(64)
	if len(b) != 64 {
		t.Fatalf("len %d", len(b))
	}
	for i := range b {
		b[i] = complex(1, 1)
	}
	a.Release()
	a2 := GetArena()
	defer a2.Release()
	z := a2.Complex(64)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("Complex(%d) not zeroed at %d after uninit use: %v", 64, i, v)
		}
	}
}
