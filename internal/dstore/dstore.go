// Package dstore implements portendd's durable verdict store: one file
// per submission key, in a versioned, checksummed container format,
// written crash-safely.
//
// File format (schema portend-verdicts/1):
//
//	magic    "portend-verdicts/1\n"
//	length   8 bytes, big-endian — payload byte count
//	payload  the caller's bytes (dstore is agnostic)
//	crc      4 bytes, big-endian — IEEE CRC-32 of the payload
//
// Files keep the .tier name of the earlier cache-tier snapshots, so a
// leftover portend-tier/1 file sits under the name its replacement will
// take: the first Load fails its magic check, and the caller quarantines
// it instead of misreading it.
//
// Writes go to a temp file in the same directory followed by an atomic
// rename, so a crash mid-write leaves either the old file or a stray
// .tmp (ignored by Scan and Load) — never a half-written entry under the
// live name. Load verifies magic, length, and CRC; anything that fails
// verification is reported as ErrBadFile so the caller can quarantine it
// (Quarantine renames the file aside, keeping the evidence while getting
// it out of the load path). A quarantined or missing entry only costs
// reuse: the daemon re-analyzes cold.
//
// Fault-injection points (internal/fault): dstore.write fails a write
// before any bytes land, dstore.truncate renames a deliberately
// truncated file into place (a simulated torn write the CRC must catch),
// and store.load.fail fails a Load.
package dstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fault"
)

// Schema is the container format identifier; it doubles as the file
// magic (newline-terminated). Bump it when the payload format changes
// incompatibly — old files then fail the magic check and are
// quarantined, never misdecoded.
const Schema = "portend-verdicts/1"

const (
	suffix           = ".tier"
	tmpSuffix        = ".tmp"
	quarantineSuffix = ".quarantine"
)

// ErrNotFound reports that no file exists for the key.
var ErrNotFound = errors.New("dstore: no entry file")

// ErrBadFile reports a file that failed verification — wrong magic
// (version skew), truncation, or checksum mismatch — or, wrapped by the
// caller, a payload it could not decode. Callers should Quarantine the
// key and proceed cold.
var ErrBadFile = errors.New("dstore: bad entry file")

// Dir is a durable store directory.
type Dir struct {
	path string
}

// Open returns a Dir rooted at path, creating the directory if needed.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("dstore: %w", err)
	}
	return &Dir{path: path}, nil
}

// Path returns the directory root.
func (d *Dir) Path() string { return d.path }

// checkKey rejects keys that could escape the directory. Keys are the
// server's hex fingerprint hashes; anything else is a programming error.
func checkKey(key string) error {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return fmt.Errorf("dstore: invalid key %q", key)
	}
	return nil
}

func (d *Dir) file(key string) string { return filepath.Join(d.path, key+suffix) }

// Write stores payload under key, crash-safely: frame, write to a temp
// file, fsync, rename. On any error the live file (if one exists) is
// untouched.
func (d *Dir) Write(key string, payload []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if fault.Fire(fault.DStoreWrite) {
		return fmt.Errorf("dstore: %s: injected write failure", key)
	}

	buf := make([]byte, 0, len(Schema)+1+12+len(payload))
	buf = append(buf, Schema...)
	buf = append(buf, '\n')
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))

	if fault.Fire(fault.DStoreTruncate) {
		// Simulate a torn write that still reached the live name: the
		// CRC (or the length check) must catch it on the next load.
		buf = buf[:len(Schema)+1+12+len(payload)/2]
	}

	tmp := d.file(key) + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("dstore: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dstore: write %s: %w", key, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dstore: sync %s: %w", key, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dstore: close %s: %w", key, err)
	}
	if err := os.Rename(tmp, d.file(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dstore: rename %s: %w", key, err)
	}
	return nil
}

// Load verifies the file for key and returns its payload. ErrNotFound
// means no file; ErrBadFile (wrapped with detail) means the file failed
// verification and should be quarantined.
func (d *Dir) Load(key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	if fault.Fire(fault.StoreLoadFail) {
		return nil, fmt.Errorf("dstore: %s: injected load failure", key)
	}
	raw, err := os.ReadFile(d.file(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("dstore: read %s: %w", key, err)
	}

	magic := []byte(Schema + "\n")
	if !bytes.HasPrefix(raw, magic) {
		return nil, fmt.Errorf("%w: %s: missing or foreign schema magic (want %q)", ErrBadFile, key, Schema)
	}
	rest := raw[len(magic):]
	if len(rest) < 12 {
		return nil, fmt.Errorf("%w: %s: truncated header", ErrBadFile, key)
	}
	n := binary.BigEndian.Uint64(rest[:8])
	rest = rest[8:]
	// Compare against the bytes present rather than computing n+4, which
	// wraps for a length field near 2^64.
	if n > uint64(len(rest)-4) {
		return nil, fmt.Errorf("%w: %s: truncated payload (%d bytes, header claims %d)", ErrBadFile, key, len(rest)-4, n)
	}
	body := rest[:n]
	want := binary.BigEndian.Uint32(rest[n : n+4])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: %s: checksum mismatch (%08x != %08x)", ErrBadFile, key, got, want)
	}
	return body, nil
}

// Quarantine moves the file for key aside (key.tier.quarantine,
// replacing any earlier quarantine), so a corrupt file stops shadowing
// the key but remains on disk for inspection. Missing files are a no-op.
func (d *Dir) Quarantine(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	err := os.Rename(d.file(key), d.file(key)+quarantineSuffix)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dstore: quarantine %s: %w", key, err)
	}
	return nil
}

// Remove deletes the file for key. Missing files are a no-op.
func (d *Dir) Remove(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := os.Remove(d.file(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dstore: remove %s: %w", key, err)
	}
	return nil
}

// Scan returns the keys of all live files, sorted (os.ReadDir
// orders by name). Temp and quarantined files are excluded.
func (d *Dir) Scan() ([]string, error) {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("dstore: scan: %w", err)
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, suffix) {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, suffix))
	}
	return keys, nil
}
