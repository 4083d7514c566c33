package fault

import "testing"

func TestDisarmedFastPath(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("Enabled() = true with no faults armed")
	}
	if Fire(DStoreWrite) {
		t.Fatal("Fire fired with no faults armed")
	}
}

func TestCountedPoint(t *testing.T) {
	Reset()
	defer Reset()
	if err := Set(DStoreWrite + ":2"); err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("Enabled() = false after Set")
	}
	for i := 0; i < 2; i++ {
		if !Fire(DStoreWrite) {
			t.Fatalf("firing %d: Fire = false, want true", i)
		}
	}
	if Fire(DStoreWrite) {
		t.Fatal("Fire = true after budget consumed")
	}
	if got := Fired(DStoreWrite); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

func TestAlwaysPoint(t *testing.T) {
	Reset()
	defer Reset()
	if err := Set(RunPanic + ":*"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !Fire(RunPanic) {
			t.Fatalf("firing %d: Fire = false, want always", i)
		}
	}
	// Other points stay dark.
	if Fire(StoreLoadFail) {
		t.Fatal("unarmed point fired")
	}
}

func TestBareSpecMeansOnce(t *testing.T) {
	Reset()
	defer Reset()
	if err := Set(StoreLoadFail); err != nil {
		t.Fatal(err)
	}
	if !Fire(StoreLoadFail) {
		t.Fatal("first Fire = false, want true")
	}
	if Fire(StoreLoadFail) {
		t.Fatal("second Fire = true, want one-shot")
	}
}

func TestMultiPointSpecAndActive(t *testing.T) {
	Reset()
	defer Reset()
	if err := Set(DStoreTruncate + ":1," + RunPanic + ":*"); err != nil {
		t.Fatal(err)
	}
	// Active sorts points, so the rendering is deterministic.
	if got, want := Active(), "dstore.truncate:1,run.panic:*"; got != want {
		t.Fatalf("Active() = %q, want %q", got, want)
	}
	if !Fire(DStoreTruncate) || !Fire(RunPanic) {
		t.Fatal("armed points did not fire")
	}
}

func TestBadSpecs(t *testing.T) {
	Reset()
	defer Reset()
	for _, spec := range []string{":3", "x:y", "x:0", "x:-1", "x:"} {
		if err := Set(spec); err == nil {
			t.Errorf("Set(%q) accepted, want error", spec)
		}
	}
}

func TestResetDisarms(t *testing.T) {
	Reset()
	if err := Set(RunPanic + ":*"); err != nil {
		t.Fatal(err)
	}
	Reset()
	if Enabled() || Fire(RunPanic) {
		t.Fatal("Reset did not disarm")
	}
}

func TestFromEnv(t *testing.T) {
	Reset()
	defer Reset()
	t.Setenv(EnvVar, DStoreWrite+":1")
	if err := FromEnv(); err != nil {
		t.Fatal(err)
	}
	if !Fire(DStoreWrite) {
		t.Fatal("env-armed point did not fire")
	}

	t.Setenv(EnvVar, "bad spec::")
	if err := FromEnv(); err == nil {
		t.Fatal("FromEnv accepted a malformed spec")
	}
}
