package cluster

import (
	"errors"
	"testing"

	"zeus/internal/checker"
)

// checkHistory fails the test unless hist is strictly serializable. On a
// cycle it first logs each member's ID, real-time bounds, reads and writes,
// so the transactions behind a violation show without a re-run, each with
// what notes holds for its ID (nil for none).
func checkHistory(t *testing.T, hist []checker.Tx, notes map[int]string) {
	t.Helper()
	err := checker.Check(hist)
	if err == nil {
		return
	}
	var v *checker.Violation
	if errors.As(err, &v) && len(v.Cycle) > 0 {
		byID := make(map[int]*checker.Tx, len(hist))
		for i := range hist {
			byID[hist[i].ID] = &hist[i]
		}
		for _, id := range v.Cycle {
			if tx := byID[id]; tx != nil {
				t.Logf("cycle member tx %d: start %d end %d reads %+v writes %+v %s",
					tx.ID, tx.Start, tx.End, tx.Reads, tx.Writes, notes[id])
			}
		}
	}
	t.Fatalf("history of %d transactions not strictly serializable: %v", len(hist), err)
}
