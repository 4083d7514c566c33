package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dstore"
)

// storeKey addresses a stored verdict stream: the SHA-256 of the
// submission's canonical fingerprint. The engine is deterministic, so
// identical keys mean byte-identical event streams.
type storeKey [sha256.Size]byte

// fingerprint captures everything that shapes a run's event bytes.
// Parallel is deliberately absent: verdict content is byte-identical at
// every pool width (the determinism suite pins this), so submissions
// differing only in width share an entry.
type fingerprint struct {
	Workload  string  `json:"w,omitempty"`
	Source    string  `json:"s,omitempty"`
	Name      string  `json:"n,omitempty"`
	Args      []int64 `json:"a"`
	ArgsSet   bool    `json:"as"`
	Inputs    []int64 `json:"i"`
	InputsSet bool    `json:"is"`

	Mp, Ma, Sym, MaxForks    int
	RunBudget, EnforceBudget int64
	Seed                     uint64
	SeedSet                  bool

	// NoStaticPrune is keyed even though verdict classes are identical
	// with pruning on or off: the verdicts' stats (prunedSchedules) and
	// the done summary differ.
	NoStaticPrune bool

	// Verbose attaches a report to every verdict event.
	Verbose bool `json:"v,omitempty"`
}

// keyFor derives the store key for a request resolved to the engine
// options it would run with, before any degradation.
func keyFor(req *Request, opts core.Options) storeKey {
	fp := fingerprint{
		Workload:  req.Workload,
		Source:    req.Source,
		Name:      req.Name,
		Args:      req.Args,
		ArgsSet:   req.Args != nil,
		Inputs:    req.Inputs,
		InputsSet: req.Inputs != nil,

		Mp:            opts.Mp,
		Ma:            opts.Ma,
		Sym:           opts.SymbolicInputs,
		MaxForks:      opts.MaxForks,
		RunBudget:     opts.RunBudget,
		EnforceBudget: opts.EnforceBudget,
		Seed:          opts.Seed,
		SeedSet:       opts.SeedSet,
		NoStaticPrune: opts.NoStaticPrune,
		Verbose:       req.Verbose,
	}
	b, err := json.Marshal(fp)
	if err != nil {
		// fingerprint is marshal-safe by construction
		panic(err)
	}
	return sha256.Sum256(b)
}

// An entry is the NDJSON of a completed stream exactly as it was sent:
// one line per verdict event, then the done event. decodeEntry splits it
// into the verdict lines, replayed verbatim, and the done summary.
func decodeEntry(payload []byte) (lines []byte, done DoneInfo, err error) {
	if len(payload) == 0 || payload[len(payload)-1] != '\n' {
		return nil, done, errors.New("entry does not end in a newline")
	}
	body := payload[:len(payload)-1]
	cut := bytes.LastIndexByte(body, '\n') + 1
	for rest := body[:cut]; len(rest) > 0; {
		line, tail, _ := bytes.Cut(rest, []byte{'\n'})
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil || ev.Type != EventVerdict || len(ev.Verdict) == 0 {
			return nil, done, fmt.Errorf("line is not a verdict event: %.80q", line)
		}
		rest = tail
	}
	var ev Event
	if err := json.Unmarshal(body[cut:], &ev); err != nil || ev.Type != EventDone || ev.Done == nil {
		return nil, done, fmt.Errorf("last line is not a done event: %.80q", body[cut:])
	}
	return payload[:cut], *ev.Done, nil
}

// loadEntry returns the stored stream for key. Any failure is a miss: a
// file that fails verification or decoding is quarantined, and load
// errors are logged and counted, never surfaced to the request.
func (s *Server) loadEntry(key storeKey) (lines []byte, done DoneInfo, ok bool) {
	hk := hex.EncodeToString(key[:])
	payload, err := s.store.Load(hk)
	if err == nil {
		lines, done, err = decodeEntry(payload)
		if err != nil {
			err = fmt.Errorf("%w: %s: %v", dstore.ErrBadFile, hk, err)
		}
	}
	switch {
	case err == nil:
		return lines, done, true
	case errors.Is(err, dstore.ErrNotFound):
	case errors.Is(err, dstore.ErrBadFile):
		s.metrics.storeLoadErrors.Add(1)
		log.Printf("portendd: entry %s: %v — quarantined, running cold", hk[:12], err)
		if qerr := s.store.Quarantine(hk); qerr != nil {
			log.Printf("portendd: entry %s: %v", hk[:12], qerr)
		}
	default:
		s.metrics.storeLoadErrors.Add(1)
		log.Printf("portendd: entry %s: %v — running cold", hk[:12], err)
	}
	return nil, done, false
}

// writeEntry persists a completed stream. Failures are logged and
// counted, never surfaced to the request.
func (s *Server) writeEntry(key storeKey, stream []byte) {
	hk := hex.EncodeToString(key[:])
	if err := s.store.Write(hk, stream); err != nil {
		s.metrics.storeWriteErrors.Add(1)
		log.Printf("portendd: write entry %s: %v", hk[:12], err)
		return
	}
	s.metrics.storeWrites.Add(1)
}
