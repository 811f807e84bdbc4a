package experiments

import (
	"io"
	"testing"

	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/rng"
)

// TestBigCellStreamingTrace traces a 1,000-node / 100,000-job cell — the
// BenchmarkBigCell configuration — end to end through a streaming
// emit-and-drop sink and asserts bounded memory: the sink's serialization
// buffer high-water mark stays at a single event's size, no matter that the
// full stream is millions of events.
//
// Skipped under -race (see race_on_test.go) and -short; plain `go test`
// runs it.
func TestBigCellStreamingTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("full-scale cell is too slow under the race detector; small-cell tests cover these paths")
	}
	if testing.Short() {
		t.Skip("full-scale cell skipped in -short mode")
	}

	jobs := job.GenerateTableOneSet(100_000, rng.New(17).Fork("tableI"))
	o := obs.New()
	sink := o.StreamEvents(io.Discard)
	Run(RunConfig{
		Policy: PolicyMCC,
		Nodes:  1000,
		Jobs:   jobs,
		Seed:   17,
		Obs:    o,
	})
	if sink.Err() != nil {
		t.Fatalf("stream sink write error: %v", sink.Err())
	}

	// Full trace, bounded memory. The stream must dwarf the resident
	// buffer: >100k jobs each emit several lifecycle events, while the
	// sink never holds more than one serialized event (well under 4 KiB).
	if sink.Events() < 500_000 {
		t.Errorf("streamed only %d events; expected the full lifecycle stream", sink.Events())
	}
	if hw := sink.HighWater(); hw > 4096 {
		t.Errorf("sink buffer high-water mark %d bytes; streaming must stay at one-event size", hw)
	}
}
