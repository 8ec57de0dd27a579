package daemon

import (
	"os"
	"testing"
)

// TestMain arms the scheduler's stress mode for the whole package when
// SLCD_SCHED_MODE=stress: every server the tests build then yields at
// every safepoint, the CI leg that tortures the park/resume path.
func TestMain(m *testing.M) {
	stressSched = os.Getenv("SLCD_SCHED_MODE") == "stress"
	os.Exit(m.Run())
}
