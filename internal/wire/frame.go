package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"funcx/internal/types"
)

// Version bytes open every binary frame. Each names the record kind
// and its layout; none is '{' or '[', so a JSON frame never decodes.
const (
	taskVersion   byte = 0xF1
	tasksVersion  byte = 0xF2
	resultVersion byte = 0xF3
)

// Task flag bits (second byte of a task frame).
const (
	taskMemoize byte = 1 << iota
	taskAtMostOnce
	taskTraced   // Trace != nil
	taskSampled  // Trace.Sampled; only with taskTraced
	taskFlagMask = taskMemoize | taskAtMostOnce | taskTraced | taskSampled
)

// Result flag bits (second byte of a result frame).
const (
	resultFailed byte = 1 << iota // Err != ""
	resultLost
	resultMemoized
	resultTraced   // Trace != nil
	resultFlagMask = resultFailed | resultLost | resultMemoized | resultTraced
)

// unixToInternal shifts Unix seconds to seconds since January 1 of
// year 1, so the zero time.Time encodes as 0.
const unixToInternal int64 = 62135596800

var (
	errMalformed = errors.New("malformed frame")
	errTrailing  = errors.New("trailing bytes")
)

// minTaskFrame is the size of the smallest task frame (the zero task),
// which bounds how many tasks a batch frame of a given size can hold.
var minTaskFrame = len(EncodeTask(&types.Task{}))

// EncodeTask frames a task for transport.
func EncodeTask(t *types.Task) []byte {
	return appendTask(make([]byte, 0, taskSize(t)), t)
}

// DecodeTask unframes a task. The task owns its memory: nothing in it
// aliases data.
func DecodeTask(data []byte) (*types.Task, error) {
	r := reader[[]byte]{b: data}
	t := decodeTask(&r)
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("wire: decoding task: %w", err)
	}
	return t, nil
}

// TaskMemoize reports whether a task frame requests memoization,
// reading only the frame header.
func TaskMemoize(data []byte) bool { return taskFlag(data, taskMemoize) }

// TaskAtMostOnce reports whether a task frame asks for at-most-once
// delivery, reading only the frame header.
func TaskAtMostOnce(data []byte) bool { return taskFlag(data, taskAtMostOnce) }

func taskFlag(data []byte, flag byte) bool {
	return len(data) >= 2 && data[0] == taskVersion && data[1]&flag != 0
}

// EncodeTasks frames a batch of tasks (executor-side batching). Each
// task travels as a length-prefixed task frame.
func EncodeTasks(ts []*types.Task) []byte {
	size := 1 + uvarintSize(uint64(len(ts)))
	for _, t := range ts {
		n := taskSize(t)
		size += uvarintSize(uint64(n)) + n
	}
	b := append(make([]byte, 0, size), tasksVersion)
	b = binary.AppendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = binary.AppendUvarint(b, uint64(taskSize(t)))
		b = appendTask(b, t)
	}
	return b
}

// DecodeTasks unframes a batch of tasks.
func DecodeTasks(data []byte) ([]*types.Task, error) {
	r := reader[[]byte]{b: data}
	if r.byte() != tasksVersion {
		r.fail()
	}
	n := r.uvarint()
	// Every task costs at least its length prefix plus the zero task:
	// reject an impossible count before allocating for it.
	if r.err == nil && n > uint64(len(r.b)/(1+minTaskFrame)) {
		r.fail()
	}
	var ts []*types.Task
	if r.err == nil {
		ts = make([]*types.Task, n)
	}
	for i := 0; i < len(ts) && r.err == nil; i++ {
		tr := reader[[]byte]{b: r.take(r.uvarint())}
		ts[i] = decodeTask(&tr)
		r.join(tr.done())
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("wire: decoding task batch: %w", err)
	}
	return ts, nil
}

// EncodeResult frames a result for transport.
func EncodeResult(r *types.Result) []byte {
	tab := strSize(string(r.TaskID)) + strSize(string(r.WorkerID))
	size := 2 + uvarintSize(uint64(tab)) + tab + strSize(r.Err) + timeSize(r.Completed) +
		varintSize(int64(r.Timing.TS)) + varintSize(int64(r.Timing.TF)) +
		varintSize(int64(r.Timing.TE)) + varintSize(int64(r.Timing.TW)) + bytesSize(r.Output)
	if r.Trace != nil {
		size += varintSize(int64(r.Trace.Exec)) + varintSize(int64(r.Trace.ManagerQueue)) +
			varintSize(int64(r.Trace.AgentQueue))
	}
	var flags byte
	if r.Err != "" {
		flags |= resultFailed
	}
	if r.Lost {
		flags |= resultLost
	}
	if r.Memoized {
		flags |= resultMemoized
	}
	if r.Trace != nil {
		flags |= resultTraced
	}
	b := append(make([]byte, 0, size), resultVersion, flags)
	b = binary.AppendUvarint(b, uint64(tab))
	b = appendStr(b, string(r.TaskID))
	b = appendStr(b, string(r.WorkerID))
	b = appendStr(b, r.Err)
	b = appendTime(b, r.Completed)
	b = binary.AppendVarint(b, int64(r.Timing.TS))
	b = binary.AppendVarint(b, int64(r.Timing.TF))
	b = binary.AppendVarint(b, int64(r.Timing.TE))
	b = binary.AppendVarint(b, int64(r.Timing.TW))
	if r.Trace != nil {
		b = binary.AppendVarint(b, int64(r.Trace.Exec))
		b = binary.AppendVarint(b, int64(r.Trace.ManagerQueue))
		b = binary.AppendVarint(b, int64(r.Trace.AgentQueue))
	}
	return appendBytes(b, r.Output)
}

// DecodeResult unframes a result. The result owns its memory: nothing
// in it aliases data.
func DecodeResult(data []byte) (*types.Result, error) {
	r := reader[[]byte]{b: data}
	if r.byte() != resultVersion {
		r.fail()
	}
	flags := r.byte()
	if flags&^resultFlagMask != 0 {
		r.fail()
	}
	tab := r.strtab()
	res := &types.Result{TaskID: types.TaskID(tab.str()), WorkerID: types.WorkerID(tab.str())}
	r.join(tab.done())
	// The error sits outside the string table, which a task-id map key
	// keeps alive, and costs an allocation only when set.
	res.Err = string(r.str())
	if (res.Err != "") != (flags&resultFailed != 0) {
		r.fail()
	}
	res.Lost = flags&resultLost != 0
	res.Memoized = flags&resultMemoized != 0
	res.Completed = r.time()
	res.Timing.TS = r.duration()
	res.Timing.TF = r.duration()
	res.Timing.TE = r.duration()
	res.Timing.TW = r.duration()
	if flags&resultTraced != 0 {
		res.Trace = &types.TraceDeltas{Exec: r.duration(), ManagerQueue: r.duration(), AgentQueue: r.duration()}
	}
	res.Output = r.bytes()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("wire: decoding result: %w", err)
	}
	return res, nil
}

// ResultStatus returns the terminal status a result frame records,
// reading only the frame header.
func ResultStatus(data []byte) (types.TaskStatus, error) {
	if len(data) < 2 || data[0] != resultVersion || data[1]&^resultFlagMask != 0 {
		return "", fmt.Errorf("wire: decoding result status: %w", errMalformed)
	}
	return types.TerminalStatus(data[1]&resultLost != 0, data[1]&resultFailed != 0), nil
}

// taskSize is the encoded size of t.
func taskSize(t *types.Task) int {
	tab := taskStrtabSize(t)
	return 2 + uvarintSize(uint64(tab)) + tab + varintSize(int64(t.BatchN)) + varintSize(int64(t.Attempt)) +
		varintSize(int64(t.MaxRetries)) + varintSize(int64(t.Walltime)) + timeSize(t.Submitted) + bytesSize(t.Payload)
}

func taskStrtabSize(t *types.Task) int {
	n := strSize(string(t.ID)) + strSize(string(t.FunctionID)) + strSize(string(t.EndpointID)) +
		strSize(string(t.Owner)) + strSize(string(t.Container.Tech)) + strSize(t.Container.Image) +
		strSize(string(t.GroupID)) + strSize(t.BodyHash) + strSize(traceID(t)) + uvarintSize(uint64(len(t.Selector)))
	for k, v := range t.Selector {
		n += strSize(k) + strSize(v)
	}
	return n
}

func traceID(t *types.Task) string {
	if t.Trace == nil {
		return ""
	}
	return t.Trace.TraceID
}

func appendTask(b []byte, t *types.Task) []byte {
	var flags byte
	if t.Memoize {
		flags |= taskMemoize
	}
	if t.AtMostOnce {
		flags |= taskAtMostOnce
	}
	if t.Trace != nil {
		flags |= taskTraced
		if t.Trace.Sampled {
			flags |= taskSampled
		}
	}
	b = append(b, taskVersion, flags)
	b = binary.AppendUvarint(b, uint64(taskStrtabSize(t)))
	b = appendStr(b, string(t.ID))
	b = appendStr(b, string(t.FunctionID))
	b = appendStr(b, string(t.EndpointID))
	b = appendStr(b, string(t.Owner))
	b = appendStr(b, string(t.Container.Tech))
	b = appendStr(b, t.Container.Image)
	b = appendStr(b, string(t.GroupID))
	b = appendStr(b, t.BodyHash)
	b = appendStr(b, traceID(t))
	b = binary.AppendUvarint(b, uint64(len(t.Selector)))
	if len(t.Selector) > 0 {
		// Key order, not map order: equal tasks encode to equal bytes.
		keys := make([]string, 0, len(t.Selector))
		for k := range t.Selector {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b = appendStr(b, k)
			b = appendStr(b, t.Selector[k])
		}
	}
	b = binary.AppendVarint(b, int64(t.BatchN))
	b = binary.AppendVarint(b, int64(t.Attempt))
	b = binary.AppendVarint(b, int64(t.MaxRetries))
	b = binary.AppendVarint(b, int64(t.Walltime))
	b = appendTime(b, t.Submitted)
	return appendBytes(b, t.Payload)
}

// decodeTask reads one task frame from r; the caller checks r.err.
func decodeTask(r *reader[[]byte]) *types.Task {
	if r.byte() != taskVersion {
		r.fail()
	}
	flags := r.byte()
	if flags&^taskFlagMask != 0 || (flags&taskSampled != 0 && flags&taskTraced == 0) {
		r.fail()
	}
	tab := r.strtab()
	t := new(types.Task)
	t.ID = types.TaskID(tab.str())
	t.FunctionID = types.FunctionID(tab.str())
	t.EndpointID = types.EndpointID(tab.str())
	t.Owner = types.UserID(tab.str())
	t.Container.Tech = types.ContainerTech(tab.str())
	t.Container.Image = tab.str()
	t.GroupID = types.GroupID(tab.str())
	t.BodyHash = tab.str()
	tid := tab.str()
	// Each pair holds at least its two length bytes.
	if n := tab.uvarint(); n > uint64(len(tab.b)/2) {
		tab.fail()
	} else if n > 0 {
		t.Selector = make(map[string]string, n)
		prev := ""
		for i := uint64(0); i < n && tab.err == nil; i++ {
			k := tab.str()
			if i > 0 && k <= prev {
				tab.fail() // keys must be strictly ascending
			}
			t.Selector[k] = tab.str()
			prev = k
		}
	}
	r.join(tab.done())
	if flags&taskTraced != 0 {
		t.Trace = &types.TraceContext{Sampled: flags&taskSampled != 0, TraceID: tid}
	} else if tid != "" {
		r.fail()
	}
	t.Memoize = flags&taskMemoize != 0
	t.AtMostOnce = flags&taskAtMostOnce != 0
	t.BatchN = r.int()
	t.Attempt = r.int()
	t.MaxRetries = r.int()
	t.Walltime = r.duration()
	t.Submitted = r.time()
	t.Payload = r.bytes()
	return t
}

// reader walks a frame ([]byte) or a string table (string). The first
// error sticks: it empties the input, so every later read returns a
// zero value.
type reader[S ~[]byte | ~string] struct {
	b   S
	err error
}

func (r *reader[S]) fail() { r.join(errMalformed) }

// join records err (when it is the first error) and empties the input.
func (r *reader[S]) join(err error) {
	if err == nil {
		return
	}
	if r.err == nil {
		r.err = err
	}
	r.b = r.b[:0]
}

// done returns the first error, or an error when bytes remain unread.
func (r *reader[S]) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = errTrailing
	}
	return r.err
}

func (r *reader[S]) byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader[S]) uvarint() uint64 {
	var x uint64
	for i := 0; i < len(r.b) && i < binary.MaxVarintLen64; i++ {
		c := r.b[i]
		if i == binary.MaxVarintLen64-1 && c > 1 {
			break // overflows 64 bits
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			// A zero last byte after the first is a padded, non-minimal
			// encoding of a shorter varint.
			if i > 0 && c == 0 {
				break
			}
			r.b = r.b[i+1:]
			return x
		}
	}
	r.fail()
	return 0
}

func (r *reader[S]) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader[S]) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail()
	}
	return int(v)
}

func (r *reader[S]) duration() time.Duration { return time.Duration(r.varint()) }

// take consumes the next n bytes, checking n against what remains
// before anything is sliced or allocated.
func (r *reader[S]) take(n uint64) S {
	if n > uint64(len(r.b)) {
		r.fail()
		return r.b[:0]
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

// str reads a length-prefixed string.
func (r *reader[S]) str() S { return r.take(r.uvarint()) }

// strtab reads a frame's string table as one string, so every string
// field shares a single allocation.
func (r *reader[S]) strtab() reader[string] {
	return reader[string]{b: string(r.str())}
}

// time reads seconds since year 1 and nanoseconds as a UTC time.
func (r *reader[S]) time() time.Time {
	sec := r.varint()
	nsec := r.uvarint()
	if nsec >= uint64(time.Second) {
		r.fail()
	}
	return time.Unix(sec-unixToInternal, int64(nsec)).UTC()
}

// bytes reads a payload copied out of the frame; 0 encodes nil.
func (r *reader[S]) bytes() []byte {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	src := r.take(n - 1)
	p := make([]byte, len(src))
	copy(p, src)
	return p
}

func uvarintSize(x uint64) int {
	size := 1
	for ; x >= 0x80; x >>= 7 {
		size++
	}
	return size
}

func varintSize(v int64) int { return uvarintSize(uint64(v<<1) ^ uint64(v>>63)) }

func strSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func timeSize(t time.Time) int {
	return varintSize(t.Unix()+unixToInternal) + uvarintSize(uint64(t.Nanosecond()))
}

func bytesSize(p []byte) int {
	if p == nil {
		return 1
	}
	return uvarintSize(uint64(len(p))+1) + len(p)
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix()+unixToInternal)
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

func appendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, 0)
	}
	return append(binary.AppendUvarint(b, uint64(len(p))+1), p...)
}
