package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzAnalyzeRequest feeds arbitrary bodies through the handler's
// request path up to the store lookup — JSON decode, Validate, option
// resolution and keyFor — which must never panic. The seed corpus is in
// testdata/fuzz/FuzzAnalyzeRequest.
func FuzzAnalyzeRequest(f *testing.F) {
	s := New(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil || req.Validate() != nil {
			return
		}
		keyFor(&req, s.optionsFor(&req))
	})
}
