package policyscope

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// runAllGoldenDigest pins the full RunAllJSON document of the
// smallSession dataset. Refactors of convergence, the persistence
// series or the what-if path must leave every byte of it unchanged; a
// deliberate change to an experiment's output updates the digest and
// size together.
const (
	runAllGoldenDigest = "c8dc4124dd24c9e4673ca9815b401d80c4a2e4223fea305d1c493fac4aa9b3a4"
	runAllGoldenBytes  = 233793
)

// TestRunAllJSONGoldenDigest hashes the indented RunAllJSON document
// and compares it with the pinned digest. The digest is independent of
// GOMAXPROCS (CI runs it under -cpu 1,4). On a mismatch the document is
// written to a temporary file so it can be diffed against a build that
// still matches.
func TestRunAllJSONGoldenDigest(t *testing.T) {
	opts := RunAllOptions{
		TierOneProviders: 3, Table6Rows: 8, Table6MinPrefixes: 2,
		DailyEpochs: 6, HourlyEpochs: 4, Routers: 6, DriftRouters: 1, Figure9ASes: 2,
	}
	doc, err := smallSession(t).RunAllJSON(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != runAllGoldenDigest || len(raw) != runAllGoldenBytes {
		path := filepath.Join(t.TempDir(), "runall.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("RunAllJSON digest = %s (%d bytes), want %s (%d bytes); document written to %s",
			got, len(raw), runAllGoldenDigest, runAllGoldenBytes, path)
	}
}
