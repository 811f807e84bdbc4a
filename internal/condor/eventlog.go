package condor

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"phishare/internal/obs"
	"phishare/internal/units"
)

// EventKind classifies job lifecycle events, mirroring the entries HTCondor
// writes to its user log (submit, match, execute, terminate, ...).
type EventKind int

const (
	// EventSubmit: the job entered the schedd queue.
	EventSubmit EventKind = iota
	// EventMatch: matchmaking claimed a machine for the job.
	EventMatch
	// EventExecute: the starter launched the job on its machine.
	EventExecute
	// EventTerminate: the job completed successfully.
	EventTerminate
	// EventCrash: the job's process was killed on the device.
	EventCrash
	// EventResubmit: a crashed job re-entered the queue.
	EventResubmit
	// EventStallAbort: the stall breaker failed an unmatchable job.
	EventStallAbort
)

func (k EventKind) String() string {
	switch k {
	case EventSubmit:
		return "submit"
	case EventMatch:
		return "match"
	case EventExecute:
		return "execute"
	case EventTerminate:
		return "terminate"
	case EventCrash:
		return "crash"
	case EventResubmit:
		return "resubmit"
	case EventStallAbort:
		return "stall-abort"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// EventKinds lists every kind, in declaration order.
func EventKinds() []EventKind {
	return []EventKind{EventSubmit, EventMatch, EventExecute, EventTerminate,
		EventCrash, EventResubmit, EventStallAbort}
}

// ParseEventKind inverts EventKind.String.
func ParseEventKind(s string) (EventKind, error) {
	for _, k := range EventKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("condor: unknown event kind %q", s)
}

// Event is one job lifecycle record.
type Event struct {
	At      units.Tick
	Kind    EventKind
	JobID   int
	User    string
	Machine string // empty for queue-side events
}

// EventLog is HTCondor's user log: the job lifecycle events of a run, in
// order. It is an obs.EventSink — register it on the run's trace
// (Trace.AddConsumer) before submitting, and it keeps the condor layer's
// lifecycle events and ignores everything else.
type EventLog struct {
	events []Event
	// users maps a job to the user its submit event named; the later
	// events of the job do not carry it.
	users map[int]string
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{users: map[int]string{}} }

// Consume implements obs.EventSink.
func (l *EventLog) Consume(e obs.Event) {
	ev, ok := LifecycleOf(e)
	if !ok {
		return
	}
	if ev.Kind == EventSubmit {
		l.users[ev.JobID] = ev.User
	} else {
		ev.User = l.users[ev.JobID]
	}
	l.events = append(l.events, ev)
}

// lifecycleKinds maps the condor layer's trace event kinds to user-log
// kinds; its other events (negotiation cycles, qedits) are not lifecycle.
var lifecycleKinds = map[string]EventKind{
	"submit": EventSubmit, "match": EventMatch, "execute": EventExecute,
	"terminate": EventTerminate, "crash": EventCrash, "resubmit": EventResubmit,
	"stall_abort": EventStallAbort,
}

// LifecycleOf reads one trace event as a user-log entry; ok is false for
// every event that is not a job lifecycle transition. User is set only on
// submit, the one lifecycle event that carries it.
func LifecycleOf(e obs.Event) (ev Event, ok bool) {
	if e.Layer != obs.LayerCondor {
		return Event{}, false
	}
	if ev.Kind, ok = lifecycleKinds[e.Kind]; !ok {
		return Event{}, false
	}
	ev.At = e.At
	ev.JobID, _ = e.Field("job").(int)
	ev.User, _ = e.Field("user").(string)
	ev.Machine, _ = e.Field("machine").(string)
	return ev, true
}

// JobHistory returns the events of one job, in order.
func (l *EventLog) JobHistory(jobID int) []Event {
	var out []Event
	for _, e := range l.events {
		if e.JobID == jobID {
			out = append(out, e)
		}
	}
	return out
}

// WriteCSV exports the log with a header row.
func (l *EventLog) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_ms", "event", "job", "user", "machine"}); err != nil {
		return err
	}
	for _, e := range l.events {
		rec := []string{
			strconv.FormatInt(int64(e.At), 10),
			e.Kind.String(),
			strconv.Itoa(e.JobID),
			e.User,
			e.Machine,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a log previously exported by WriteCSV (header row
// included) back into events.
func ReadCSV(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("condor: event log header: %w", err)
	}
	if len(header) != 5 || header[0] != "time_ms" || header[1] != "event" {
		return nil, fmt.Errorf("condor: unexpected event log header %v", header)
	}
	var events []Event
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		at, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("condor: event log line %d: bad time %q", line, rec[0])
		}
		kind, err := ParseEventKind(rec[1])
		if err != nil {
			return nil, fmt.Errorf("condor: event log line %d: %w", line, err)
		}
		jobID, err := strconv.Atoi(rec[2])
		if err != nil {
			return nil, fmt.Errorf("condor: event log line %d: bad job id %q", line, rec[2])
		}
		events = append(events, Event{
			At: units.Tick(at), Kind: kind, JobID: jobID,
			User: rec[3], Machine: rec[4],
		})
	}
}
