package lint_test

import (
	"testing"

	"zeus/internal/lint"
	"zeus/internal/lint/linttest"
)

// The analyzer suites: each loads its golden fixture from testdata and
// matches the diagnostics against the committed `// want` comments. Every
// fixture also carries a //lint:allow line proving the waiver suppresses the
// finding (the harness would report it as unexpected otherwise).

func TestFrozen(t *testing.T) {
	linttest.Run(t, "frozen", lint.Frozen)
}

// TestReplaceOnly pins the []byte rows of Frozen's hand-off table: the
// payload views (DataLocked, a transaction's Get) and the bytes Set and Seed
// adopt.
func TestReplaceOnly(t *testing.T) {
	linttest.RunFiles(t, "frozen", lint.Frozen, "payload.go", "view.go", "set.go", "seed.go")
}

// TestSendFrozen pins Frozen's wire-message row: a message handed to Send
// and its kin is never written through.
func TestSendFrozen(t *testing.T) {
	linttest.RunFiles(t, "frozen", lint.Frozen, "send.go")
}

func TestLockedSuffix(t *testing.T) {
	linttest.Run(t, "lockedsuffix", lint.LockedSuffix)
}

func TestRetryDiscipline(t *testing.T) {
	linttest.Run(t, "retrydiscipline", lint.RetryDiscipline)
}

func TestAckDurable(t *testing.T) {
	linttest.Run(t, "ackdurable", lint.AckDurable)
}

// TestWaiverRequiresReason: a //lint:allow with no reason is itself a finding
// (rule "waiver"), and the waiver does not apply — the underlying diagnostic
// still fires. Both must surface.
func TestWaiverRequiresReason(t *testing.T) {
	findings := linttest.Findings(t, "waiver", lint.RetryDiscipline)
	var sawMalformed, sawSleep bool
	for _, f := range findings {
		switch f.Rule {
		case "waiver":
			sawMalformed = true
		case "retrydiscipline":
			sawSleep = true
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if !sawMalformed {
		t.Error("malformed //lint:allow (missing reason) produced no waiver finding")
	}
	if !sawSleep {
		t.Error("malformed waiver suppressed the underlying finding; it must not apply")
	}
}
