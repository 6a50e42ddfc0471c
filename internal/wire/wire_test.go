package wire

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"funcx/internal/types"
)

// fullTask sets every field of types.Task.
func fullTask() *types.Task {
	return &types.Task{
		ID:         "task-1",
		FunctionID: "fn-1",
		EndpointID: "ep-1",
		Owner:      "alice",
		Container:  types.ContainerSpec{Tech: types.ContainerDocker, Image: "img:1"},
		GroupID:    "grp-1",
		Selector:   map[string]string{"site": "anl", "arch": "x86", "gpu": "a100"},
		Payload:    []byte{0, 1, 2, 255},
		BodyHash:   "abc",
		Memoize:    true,
		BatchN:     3,
		Attempt:    2,
		Walltime:   90 * time.Second,
		MaxRetries: 5,
		AtMostOnce: true,
		Submitted:  time.Date(2026, 1, 2, 3, 4, 5, 6, time.Local),
		Trace:      &types.TraceContext{Sampled: true, TraceID: "0af7651916cd43dd8448eb211c80319c"},
	}
}

// sameTime checks *got against want with time.Equal (a decoded time
// carries no monotonic reading or location), then aligns *got so the
// caller can compare the whole record with reflect.DeepEqual.
func sameTime(t *testing.T, field string, got *time.Time, want time.Time) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s = %v, want %v", field, *got, want)
	}
	*got = want
}

func TestTaskRoundTrip(t *testing.T) {
	for name, mutate := range map[string]func(*types.Task){
		"full":          func(*types.Task) {},
		"zero":          func(in *types.Task) { *in = types.Task{} },
		"nil payload":   func(in *types.Task) { in.Payload = nil },
		"empty payload": func(in *types.Task) { in.Payload = []byte{} },
		"unsampled":     func(in *types.Task) { in.Trace = &types.TraceContext{} },
		"negative":      func(in *types.Task) { in.Attempt, in.Walltime = -1, -time.Hour },
		"pre-epoch":     func(in *types.Task) { in.Submitted = time.Date(1, 2, 3, 4, 5, 6, 7, time.UTC) },
		"monotonic":     func(in *types.Task) { in.Submitted = time.Now() },
	} {
		t.Run(name, func(t *testing.T) {
			in := fullTask()
			mutate(in)
			out, err := DecodeTask(EncodeTask(in))
			if err != nil {
				t.Fatal(err)
			}
			sameTime(t, "Submitted", &out.Submitted, in.Submitted)
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("roundtrip =\n%+v\nwant\n%+v", out, in)
			}
			if (out.Payload == nil) != (in.Payload == nil) {
				t.Fatalf("payload nil = %v, want %v", out.Payload == nil, in.Payload == nil)
			}
		})
	}
}

func TestDecodedTaskDoesNotAliasFrame(t *testing.T) {
	frame := EncodeTask(fullTask())
	out, err := DecodeTask(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0
	}
	if want := fullTask(); !bytes.Equal(out.Payload, want.Payload) || out.ID != want.ID || out.Selector["gpu"] != "a100" {
		t.Fatalf("decoded task changed with its frame: %+v", out)
	}
}

func TestSelectorEncodingDeterministic(t *testing.T) {
	first := EncodeTask(fullTask())
	for i := 0; i < 20; i++ {
		if again := EncodeTask(fullTask()); !bytes.Equal(first, again) {
			t.Fatalf("encoding %d differs:\n%x\n%x", i, first, again)
		}
	}
}

func TestTaskBatchRoundTrip(t *testing.T) {
	in := []*types.Task{fullTask(), {ID: "b"}, {ID: "c", Payload: []byte("x")}}
	out, err := DecodeTasks(EncodeTasks(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d tasks, want %d", len(out), len(in))
	}
	for i := range in {
		sameTime(t, "Submitted", &out[i].Submitted, in[i].Submitted)
		if !reflect.DeepEqual(out[i], in[i]) {
			t.Fatalf("task %d =\n%+v\nwant\n%+v", i, out[i], in[i])
		}
	}
	if out, err := DecodeTasks(EncodeTasks(nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
}

func fullResult() *types.Result {
	return &types.Result{
		TaskID:    "t1",
		Output:    []byte("output"),
		Err:       `{"message":"boom"}`,
		Completed: time.Date(2026, 1, 2, 3, 4, 5, 6, time.Local),
		Timing:    types.Timing{TS: time.Millisecond, TF: 2 * time.Millisecond, TE: 3 * time.Millisecond, TW: 4 * time.Millisecond},
		WorkerID:  "w1",
		Memoized:  true,
		Lost:      true,
		Trace:     &types.TraceDeltas{Exec: 5 * time.Microsecond, ManagerQueue: 6 * time.Microsecond, AgentQueue: 7 * time.Microsecond},
	}
}

func TestResultRoundTrip(t *testing.T) {
	for name, mutate := range map[string]func(*types.Result){
		"full":         func(*types.Result) {},
		"zero":         func(in *types.Result) { *in = types.Result{} },
		"success":      func(in *types.Result) { in.Err, in.Lost = "", false },
		"untraced":     func(in *types.Result) { in.Trace = nil },
		"empty output": func(in *types.Result) { in.Output = []byte{} },
		"monotonic":    func(in *types.Result) { in.Completed = time.Now() },
	} {
		t.Run(name, func(t *testing.T) {
			in := fullResult()
			mutate(in)
			out, err := DecodeResult(EncodeResult(in))
			if err != nil {
				t.Fatal(err)
			}
			sameTime(t, "Completed", &out.Completed, in.Completed)
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("roundtrip =\n%+v\nwant\n%+v", out, in)
			}
		})
	}
}

func TestHeaderPeeks(t *testing.T) {
	for _, on := range []bool{false, true} {
		task := fullTask()
		task.Memoize, task.AtMostOnce = on, !on
		if got := TaskMemoize(EncodeTask(task)); got != on {
			t.Fatalf("TaskMemoize = %v, want %v", got, on)
		}
		if got := TaskAtMostOnce(EncodeTask(task)); got != !on {
			t.Fatalf("TaskAtMostOnce = %v, want %v", got, !on)
		}
	}
	for _, c := range []struct {
		err  string
		lost bool
		want types.TaskStatus
	}{
		{"", false, types.TaskSuccess},
		{"boom", false, types.TaskFailed},
		{"gave up", true, types.TaskLost},
	} {
		res := &types.Result{TaskID: "t", Err: c.err, Lost: c.lost}
		got, err := ResultStatus(EncodeResult(res))
		if err != nil || got != c.want {
			t.Fatalf("ResultStatus(%+v) = %q, %v; want %q", res, got, err, c.want)
		}
	}
	if TaskMemoize([]byte(`{"memoize":true}`)) || TaskMemoize(nil) {
		t.Fatal("TaskMemoize accepted a non-task frame")
	}
	if TaskAtMostOnce([]byte(`{"at_most_once":true}`)) || TaskAtMostOnce(nil) {
		t.Fatal("TaskAtMostOnce accepted a non-task frame")
	}
	if _, err := ResultStatus([]byte(`{"lost":true}`)); err == nil {
		t.Fatal("ResultStatus accepted a JSON frame")
	}
	if _, err := ResultStatus(EncodeTask(fullTask())); err == nil {
		t.Fatal("ResultStatus accepted a task frame")
	}
}

// corpus reads the FuzzDecode corpus entries matching pattern.
func corpus(t *testing.T, pattern string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata/fuzz/FuzzDecode", pattern))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus entries match %s: %v", pattern, err)
	}
	seeds := make(map[string][]byte)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		line := strings.TrimSpace(strings.SplitN(string(raw), "\n", 3)[1])
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		seeds[filepath.Base(p)] = []byte(s)
	}
	return seeds
}

// TestBinaryDecodersRejectJSONFrames keeps the JSON-era frames in the
// corpus as inputs every binary decoder must reject.
func TestBinaryDecodersRejectJSONFrames(t *testing.T) {
	for name, frame := range corpus(t, "json_*") {
		if _, err := DecodeTask(frame); err == nil {
			t.Errorf("DecodeTask accepted %s", name)
		}
		if _, err := DecodeTasks(frame); err == nil {
			t.Errorf("DecodeTasks accepted %s", name)
		}
		if _, err := DecodeResult(frame); err == nil {
			t.Errorf("DecodeResult accepted %s", name)
		}
	}
}

// TestCorpusFramesDecode checks the binary corpus entries are current
// frames, so the fuzzer starts from accepted inputs.
func TestCorpusFramesDecode(t *testing.T) {
	c := corpus(t, "*")
	for _, name := range []string{"task", "tasks", "result", "result_lost"} {
		var err error
		switch name {
		case "task":
			_, err = DecodeTask(c[name])
		case "tasks":
			_, err = DecodeTasks(c[name])
		default:
			_, err = DecodeResult(c[name])
		}
		if err != nil {
			t.Errorf("corpus entry %s: %v", name, err)
		}
	}
}

// decodeAllocBytes runs every binary decoder on frame, requires each to
// fail, and returns the most bytes any one of them allocated.
func decodeAllocBytes(t *testing.T, frame []byte) uint64 {
	t.Helper()
	var most uint64
	for name, decode := range map[string]func([]byte) error{
		"DecodeTask":   func(b []byte) error { _, err := DecodeTask(b); return err },
		"DecodeTasks":  func(b []byte) error { _, err := DecodeTasks(b); return err },
		"DecodeResult": func(b []byte) error { _, err := DecodeResult(b); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted %x", name, frame)
		}
		most = max(most, after.TotalAlloc-before.TotalAlloc)
	}
	return most
}

func TestDecodeHostileFrames(t *testing.T) {
	const allocLimit = 64 << 10
	task := EncodeTask(fullTask())
	batch := EncodeTasks([]*types.Task{fullTask(), fullTask()})
	result := EncodeResult(fullResult())

	// Every proper prefix of a valid frame is truncated.
	for _, frame := range [][]byte{task, batch, result} {
		for n := 0; n < len(frame); n++ {
			if got := decodeAllocBytes(t, frame[:n]); got > allocLimit {
				t.Fatalf("truncated frame %x allocated %d bytes", frame[:n], got)
			}
		}
	}

	// A 7-byte batch frame claiming 2^40 tasks.
	huge := binary.AppendUvarint([]byte{tasksVersion}, 1<<40)
	if len(huge) != 7 {
		t.Fatalf("batch frame is %d bytes, want 7", len(huge))
	}
	if got := decodeAllocBytes(t, huge); got > allocLimit {
		t.Fatalf("2^40-task batch claim allocated %d bytes", got)
	}

	// String-table and payload lengths running past the end.
	for _, frame := range [][]byte{
		binary.AppendUvarint([]byte{taskVersion, 0}, 1<<40),
		binary.AppendUvarint([]byte{resultVersion, 0}, 1<<62),
		append(bytes.Clone(task[:len(task)-len(fullTask().Payload)-1]), 0xff, 0xff, 0xff, 0xff, 0x0f),
		append([]byte{resultVersion, 0, 5}, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0),
	} {
		if got := decodeAllocBytes(t, frame); got > allocLimit {
			t.Fatalf("overlong length in %x allocated %d bytes", frame, got)
		}
	}

	// Trailing bytes and non-canonical forms.
	for name, frame := range map[string][]byte{
		"trailing":           append(bytes.Clone(task), 0),
		"unknown flag":       append([]byte{taskVersion, 0x80}, task[2:]...),
		"sampled untraced":   append([]byte{taskVersion, taskSampled}, task[2:]...),
		"failed without err": append([]byte{resultVersion, resultFailed}, EncodeResult(&types.Result{TaskID: "t"})[2:]...),
		"padded varint":      append([]byte{resultVersion, 0, 0x80, 0x00}, EncodeResult(&types.Result{})[3:]...),
	} {
		if got := decodeAllocBytes(t, frame); got > allocLimit {
			t.Fatalf("%s: allocated %d bytes", name, got)
		}
	}
	unsorted := EncodeTask(&types.Task{Selector: map[string]string{"a": "1", "b": "2"}})
	i := bytes.Index(unsorted, []byte("\x01a\x011\x01b\x012"))
	copy(unsorted[i:], "\x01b\x012\x01a\x011")
	if _, err := DecodeTask(unsorted); err == nil {
		t.Fatal("DecodeTask accepted unsorted selector keys")
	}
}

// TestCodecAllocs is an allocation tripwire on records shaped like the
// lifecycle benchmark's: 256 B and 1 KiB payloads, a sampled trace
// context, and endpoint trace deltas.
func TestCodecAllocs(t *testing.T) {
	for _, size := range []int{256, 1024} {
		payload := bytes.Repeat([]byte{0xa5}, size)
		task := &types.Task{
			ID: "0d5b3c4e-6f7a-4b8c-9d0e-1f2a3b4c5d6e", FunctionID: "fn-echo", EndpointID: "ep-bench",
			Owner: "bench-user", Payload: payload, BodyHash: strings.Repeat("ab", 32),
			Attempt: 1, Submitted: time.Now(),
			Trace: &types.TraceContext{Sampled: true, TraceID: strings.Repeat("cd", 16)},
		}
		res := &types.Result{
			TaskID: task.ID, Output: payload, Completed: time.Now(),
			Timing:   types.Timing{TS: 180 * time.Microsecond, TF: 90 * time.Microsecond, TE: 12 * time.Microsecond, TW: 40 * time.Microsecond},
			WorkerID: "bench-mgr-1-w0",
			Trace:    &types.TraceDeltas{Exec: 12 * time.Microsecond, ManagerQueue: 30 * time.Microsecond, AgentQueue: 50 * time.Microsecond},
		}
		taskFrame, resFrame := EncodeTask(task), EncodeResult(res)
		for _, c := range []struct {
			name  string
			limit float64
			f     func()
		}{
			{"DecodeTask", 4, func() { _, _ = DecodeTask(taskFrame) }},
			{"DecodeResult", 4, func() { _, _ = DecodeResult(resFrame) }},
			{"EncodeTask", 1, func() { EncodeTask(task) }},
			{"EncodeResult", 1, func() { EncodeResult(res) }},
		} {
			if got := testing.AllocsPerRun(100, c.f); got > c.limit {
				t.Errorf("%s (%d B payload): %.0f allocs, want <= %.0f", c.name, size, got, c.limit)
			}
		}
	}
}

func TestRegistrationRoundTrip(t *testing.T) {
	in := &Registration{
		EndpointID: "ep-1",
		ManagerID:  "mgr-1",
		Workers:    8,
		Containers: []string{"docker:a", "none"},
		Token:      "tok",
	}
	out, err := DecodeRegistration(EncodeRegistration(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.EndpointID != in.EndpointID || out.ManagerID != in.ManagerID ||
		out.Workers != 8 || len(out.Containers) != 2 || out.Token != "tok" {
		t.Fatalf("roundtrip = %+v", out)
	}
}

func TestCapacityRoundTrip(t *testing.T) {
	in := &types.Capacity{
		ManagerID: "m1",
		Free:      map[string]int{"none": 2, "docker:x": 1},
		Slots:     3,
		Prefetch:  4,
		Total:     8,
	}
	out, err := DecodeCapacity(EncodeCapacity(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.ManagerID != "m1" || out.Free["none"] != 2 || out.Slots != 3 || out.Prefetch != 4 || out.Total != 8 {
		t.Fatalf("roundtrip = %+v", out)
	}
	if out.Available("none") != 2+3+4 {
		t.Fatalf("Available = %d", out.Available("none"))
	}
}

func TestStatusRoundTrip(t *testing.T) {
	in := &types.EndpointStatus{
		ID: "ep", Connected: true, OutstandingTasks: 5, QueuedTasks: 2,
		Managers: 3, Workers: 12, IdleWorkers: 7,
	}
	out, err := DecodeStatus(EncodeStatus(in))
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("roundtrip = %+v, want %+v", out, in)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeTask([]byte("{")); err == nil {
		t.Fatal("DecodeTask accepted garbage")
	}
	if _, err := DecodeTasks([]byte("nope")); err == nil {
		t.Fatal("DecodeTasks accepted garbage")
	}
	if _, err := DecodeResult(nil); err == nil {
		t.Fatal("DecodeResult accepted nil")
	}
	if _, err := DecodeRegistration([]byte("[]")); err == nil {
		t.Fatal("DecodeRegistration accepted wrong shape")
	}
	if _, err := DecodeCapacity([]byte("[1]")); err == nil {
		t.Fatal("DecodeCapacity accepted wrong shape")
	}
	if _, err := DecodeStatus([]byte("x")); err == nil {
		t.Fatal("DecodeStatus accepted garbage")
	}
}
