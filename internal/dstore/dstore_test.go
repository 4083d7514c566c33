package dstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

func open(t *testing.T) *Dir {
	t.Helper()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRoundTrip(t *testing.T) {
	d := open(t)
	in := []byte("{\"type\":\"verdict\"}\n{\"type\":\"done\"}\n")
	if err := d.Write("abc123", in); err != nil {
		t.Fatal(err)
	}
	out, err := d.Load("abc123")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatalf("round trip mismatch: %q", out)
	}
}

func TestLoadMissing(t *testing.T) {
	d := open(t)
	if _, err := d.Load("nothere"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestRejectsBadKeys(t *testing.T) {
	d := open(t)
	for _, key := range []string{"", "a/b", `a\b`, "..", "a.tier"} {
		if err := d.Write(key, nil); err == nil {
			t.Errorf("Write(%q) accepted, want error", key)
		}
		if _, err := d.Load(key); err == nil {
			t.Errorf("Load(%q) accepted, want error", key)
		}
	}
}

// corrupt flips one payload byte; the CRC must catch it.
func TestCorruptFileQuarantined(t *testing.T) {
	d := open(t)
	if err := d.Write("k1", []byte("a verdict stream payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(d.Path(), "k1.tier")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-8] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := d.Load("k1"); !errors.Is(err, ErrBadFile) {
		t.Fatalf("corrupt load err = %v, want ErrBadFile", err)
	}
	if err := d.Quarantine("k1"); err != nil {
		t.Fatal(err)
	}
	// The key no longer resolves, but the evidence file remains.
	if _, err := d.Load("k1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-quarantine load err = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}

func TestVersionSkewRejected(t *testing.T) {
	d := open(t)
	path := filepath.Join(d.Path(), "k2.tier")
	if err := os.WriteFile(path, []byte("portend-tier/0\njunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("k2"); !errors.Is(err, ErrBadFile) {
		t.Fatalf("skewed load err = %v, want ErrBadFile", err)
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	d := open(t)
	if err := d.Write("k3", []byte("a verdict stream payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(d.Path(), "k3.tier")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-6], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("k3"); !errors.Is(err, ErrBadFile) {
		t.Fatalf("truncated load err = %v, want ErrBadFile", err)
	}
}

// An injected write failure must leave the previous live file intact.
func TestInjectedWriteFailureKeepsOldFile(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	d := open(t)
	if err := d.Write("k4", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := fault.Set(fault.DStoreWrite + ":1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("k4", []byte("v2")); err == nil {
		t.Fatal("injected write succeeded, want error")
	}
	out, err := d.Load("k4")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "v1" {
		t.Fatalf("old file clobbered: got %q, want v1", out)
	}
}

// An injected torn write reaches the live name but fails verification,
// and quarantining it restores a cold (not wrong) state.
func TestInjectedTruncateCaughtByCRC(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	d := open(t)
	if err := fault.Set(fault.DStoreTruncate + ":1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("k5", []byte("a torn verdict stream payload")); err != nil {
		t.Fatal(err)
	}
	if fault.Fired(fault.DStoreTruncate) != 1 {
		t.Fatal("truncate fault did not fire")
	}
	if _, err := d.Load("k5"); !errors.Is(err, ErrBadFile) {
		t.Fatalf("torn load err = %v, want ErrBadFile", err)
	}
	if err := d.Quarantine("k5"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("k5"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-quarantine err = %v, want ErrNotFound", err)
	}
}

func TestInjectedLoadFailure(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	d := open(t)
	if err := d.Write("k6", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if err := fault.Set(fault.StoreLoadFail + ":1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("k6"); err == nil {
		t.Fatal("injected load succeeded, want error")
	}
	// The injected failure is transient, not corruption: the next load works.
	if out, err := d.Load("k6"); err != nil || string(out) != "fine" {
		t.Fatalf("post-fault load = %q, %v", out, err)
	}
}

func TestScanSkipsTempAndQuarantine(t *testing.T) {
	d := open(t)
	for _, k := range []string{"b1", "a1"} {
		if err := d.Write(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(d.Path(), "c1.tier.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("q1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.Quarantine("q1"); err != nil {
		t.Fatal(err)
	}
	keys, err := d.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a1" || keys[1] != "b1" {
		t.Fatalf("Scan = %v, want [a1 b1]", keys)
	}
}

func TestRemove(t *testing.T) {
	d := open(t)
	if err := d.Write("k7", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("k7"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("k7"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-remove err = %v, want ErrNotFound", err)
	}
	if err := d.Remove("k7"); err != nil {
		t.Fatalf("double remove: %v", err)
	}
}

// TestLengthOverflowRejected pins the bounds check against a length
// field of 2^64-1: computing n+4 wraps, so a check written that way
// passes and slicing the payload panics.
func TestLengthOverflowRejected(t *testing.T) {
	d := open(t)
	raw := append([]byte(Schema+"\n"), binary.BigEndian.AppendUint64(nil, ^uint64(0))...)
	raw = append(raw, "payload and crc"...)
	if err := os.WriteFile(filepath.Join(d.Path(), "k8.tier"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("k8"); !errors.Is(err, ErrBadFile) {
		t.Fatalf("overflowing length err = %v, want ErrBadFile", err)
	}
}

// FuzzLoad feeds arbitrary file contents to Load: every input must load,
// be missing, or fail verification with ErrBadFile — never panic. The
// seed corpus is in testdata/fuzz/FuzzLoad.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	d, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(filepath.Join(dir, "fz.tier"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := d.Load("fz")
		if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrBadFile) {
			t.Fatalf("Load = %v, want nil, ErrNotFound or ErrBadFile", err)
		}
	})
}
