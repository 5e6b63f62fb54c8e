package experiments

import (
	"context"
	"reflect"
	"testing"
	"unsafe"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/workload"
)

// TestTables2And3ServedFromFigure3 checks the per-trace results memo
// end to end: Table 2 and Table 3 read the ten-stream, depth-2,
// unfiltered run that Figure 3's last column already simulated, so
// after Figure 3 they replay nothing, and they render what a fresh
// run renders.
func TestTables2And3ServedFromFigure3(t *testing.T) {
	ctx := context.Background()
	opt := Options{Scale: 0.01}
	ResetTraceCache()
	if _, err := Figure3(ctx, opt); err != nil {
		t.Fatal(err)
	}
	before, hits := ReplayedRefs(), ResultCacheHits()
	memo2, err := Table2(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	memo3, err := Table3(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := ReplayedRefs() - before; got != 0 {
		t.Errorf("Table 2 and Table 3 replayed %d references after Figure 3, want 0", got)
	}
	if got, want := ResultCacheHits()-hits, uint64(2*len(workload.Names())); got != want {
		t.Errorf("result cache hits advanced by %d, want %d", got, want)
	}

	ResetTraceCache()
	before = ReplayedRefs()
	fresh2, err := Table2(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh3, err := Table3(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ReplayedRefs() == before {
		t.Error("Table 2 after ResetTraceCache replayed nothing; the reset kept the results memo")
	}
	if got, want := memo2.CSV(), fresh2.CSV(); got != want {
		t.Errorf("memoized Table 2 differs from a fresh run:\n%s\nwant\n%s", got, want)
	}
	if got, want := memo3.CSV(), fresh3.CSV(); got != want {
		t.Errorf("memoized Table 3 differs from a fresh run:\n%s\nwant\n%s", got, want)
	}
}

// TestHookedConfigReplaysEveryCall checks that a configuration
// carrying a hook is never memoized: each call replays the trace and
// fires the hook as often as the first.
func TestHookedConfigReplaysEveryCall(t *testing.T) {
	ctx := context.Background()
	opt := Options{Scale: 0.01}
	var fired int
	cfg := plainStreams(10)
	cfg.OnMemoryTraffic = func(mem.Addr) { fired++ }
	var first int
	for call := 0; call < 3; call++ {
		fired = 0
		before := ReplayedRefs()
		if _, err := runConfig(ctx, "embar", workload.SizeSmall, opt, cfg); err != nil {
			t.Fatal(err)
		}
		if ReplayedRefs() == before {
			t.Errorf("call %d: hooked configuration replayed nothing", call)
		}
		if call == 0 {
			if fired == 0 {
				t.Fatal("hook never fired")
			}
			first = fired
		} else if fired != first {
			t.Errorf("call %d: hook fired %d times, want %d", call, fired, first)
		}
	}
}

// TestConfigKeyCoversEveryField perturbs each leaf field of
// core.Config in turn (func fields skipped) and checks that the memo
// key changes, so no field added to Config, cache.Config or
// stream.Config can make two configurations share memoized results.
func TestConfigKeyCoversEveryField(t *testing.T) {
	base := core.DefaultConfig()
	baseKey, ok := keyOf(base)
	if !ok {
		t.Fatal("hook-free configuration has no memo key")
	}
	leaves := 0
	var walk func(typ reflect.Type, index []int, path string)
	walk = func(typ reflect.Type, index []int, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			p := path + "." + f.Name
			switch f.Type.Kind() {
			case reflect.Func:
				continue
			case reflect.Struct:
				walk(f.Type, idx, p)
				continue
			}
			cfg := base
			v := reflect.ValueOf(&cfg).Elem().FieldByIndex(idx)
			// Unexported leaves (mem.Geometry's) are set through their
			// address: the key must cover them too.
			v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.String:
				v.SetString(v.String() + "x")
			default:
				t.Errorf("Config%s: no perturbation for kind %s", p, v.Kind())
				continue
			}
			leaves++
			k, ok := keyOf(cfg)
			if !ok {
				t.Errorf("Config%s: perturbed configuration has no memo key", p)
			} else if k == baseKey {
				t.Errorf("Config%s: memo key ignores the field", p)
			}
		}
	}
	walk(reflect.TypeOf(base), nil, "")
	if leaves < 20 {
		t.Errorf("perturbed only %d leaf fields; the walk missed Config's nested structs", leaves)
	}
}

// TestConfigKeyRefusesHooks checks that neither hook is memoized.
func TestConfigKeyRefusesHooks(t *testing.T) {
	hook := func(mem.Addr) {}
	traffic := core.DefaultConfig()
	traffic.OnMemoryTraffic = hook
	prefetch := core.DefaultConfig()
	prefetch.Streams.OnPrefetch = hook
	for _, c := range []struct {
		hook string
		cfg  core.Config
	}{{"OnMemoryTraffic", traffic}, {"Streams.OnPrefetch", prefetch}} {
		if _, ok := keyOf(c.cfg); ok {
			t.Errorf("configuration with %s has a memo key", c.hook)
		}
	}
}
