package wire

import (
	"bytes"
	"testing"

	"funcx/internal/types"
)

// codecs pairs each wire decoder with its re-encoder, closed over the
// concrete record type so the fuzzer can drive every codec with one
// input. A decoder must never panic on arbitrary bytes, and any frame
// it accepts must reach a canonical fixed point:
// encode(decode(encode(decode(x)))) == encode(decode(x)). A frame
// that survives one hop therefore survives every hop unchanged —
// the property the forwarder/agent/manager relay chain relies on.
// The binary codecs are canonical outright: every frame they accept
// re-encodes to exactly its own bytes.
var codecs = []struct {
	name      string
	binary    bool
	roundTrip func([]byte) ([]byte, bool)
}{
	{"task", true, func(b []byte) ([]byte, bool) {
		t, err := DecodeTask(b)
		if err != nil {
			return nil, false
		}
		return EncodeTask(t), true
	}},
	{"tasks", true, func(b []byte) ([]byte, bool) {
		ts, err := DecodeTasks(b)
		if err != nil {
			return nil, false
		}
		return EncodeTasks(ts), true
	}},
	{"result", true, func(b []byte) ([]byte, bool) {
		r, err := DecodeResult(b)
		if err != nil {
			return nil, false
		}
		return EncodeResult(r), true
	}},
	{"registration", false, func(b []byte) ([]byte, bool) {
		r, err := DecodeRegistration(b)
		if err != nil {
			return nil, false
		}
		return EncodeRegistration(r), true
	}},
	{"capacity", false, func(b []byte) ([]byte, bool) {
		c, err := DecodeCapacity(b)
		if err != nil {
			return nil, false
		}
		return EncodeCapacity(c), true
	}},
	{"advice", false, func(b []byte) ([]byte, bool) {
		a, err := DecodeAdvice(b)
		if err != nil {
			return nil, false
		}
		return EncodeAdvice(a), true
	}},
	{"taskstart", false, func(b []byte) ([]byte, bool) {
		s, err := DecodeTaskStart(b)
		if err != nil {
			return nil, false
		}
		return EncodeTaskStart(s), true
	}},
	{"event", false, func(b []byte) ([]byte, bool) {
		e, err := DecodeEvent(b)
		if err != nil {
			return nil, false
		}
		return EncodeEvent(e), true
	}},
	{"dag", false, func(b []byte) ([]byte, bool) {
		g, err := DecodeDAG(b)
		if err != nil {
			return nil, false
		}
		return EncodeDAG(g), true
	}},
	{"status", false, func(b []byte) ([]byte, bool) {
		s, err := DecodeStatus(b)
		if err != nil {
			return nil, false
		}
		return EncodeStatus(s), true
	}},
}

func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":"t1","endpoint_id":"ep1","fn":"f1"}`))
	f.Add([]byte(`{"task_id":"t1","worker_id":"w1","manager_id":"m1"}`))
	f.Add([]byte(`{"endpoint_id":"ep1","workers":4,"containers":["py"]}`))
	f.Add([]byte(`{"task_id":"t1","status":"success","time":"2026-01-02T03:04:05.000000006Z"}`))
	f.Add([]byte(`[{"id":"a"},{"id":"b"}]`))
	f.Add([]byte(`{"id":"dag1","nodes":{"n":{"key":"n"}},"order":["n"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			enc1, ok := c.roundTrip(data)
			if !ok {
				continue
			}
			enc2, ok := c.roundTrip(enc1)
			if !ok {
				t.Fatalf("%s: decoder rejected its own encoder's output %q (from %q)", c.name, enc1, data)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("%s: round trip is not a fixed point:\n first %q\nsecond %q", c.name, enc1, enc2)
			}
			if c.binary && !bytes.Equal(data, enc1) {
				t.Fatalf("%s: accepted a non-canonical frame:\n input %q\nre-enc %q", c.name, data, enc1)
			}
		}
		// The header peeks agree with a full decode.
		if task, err := DecodeTask(data); err == nil {
			if TaskMemoize(data) != task.Memoize {
				t.Fatalf("TaskMemoize = %v, decoded Memoize = %v", !task.Memoize, task.Memoize)
			}
			if TaskAtMostOnce(data) != task.AtMostOnce {
				t.Fatalf("TaskAtMostOnce = %v, decoded AtMostOnce = %v", !task.AtMostOnce, task.AtMostOnce)
			}
		}
		if res, err := DecodeResult(data); err == nil {
			if st, err := ResultStatus(data); err != nil || st != types.TerminalStatus(res.Lost, res.Failed()) {
				t.Fatalf("ResultStatus = %q, %v for decoded %+v", st, err, res)
			}
		}
	})
}
