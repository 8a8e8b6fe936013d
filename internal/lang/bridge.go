package lang

// OpType enumerates the shared-object operation types (§3.3, Fig. 12).
type OpType uint8

const (
	RegisterRead OpType = iota + 1
	RegisterWrite
	KvGet
	KvSet
	DBOp
)

func (t OpType) String() string {
	switch t {
	case RegisterRead:
		return "RegisterRead"
	case RegisterWrite:
		return "RegisterWrite"
	case KvGet:
		return "KvGet"
	case KvSet:
		return "KvSet"
	case DBOp:
		return "DBOp"
	default:
		return "OpType(?)"
	}
}

// Bridge is the interpreter's window onto shared state and
// non-determinism. The server implements it with real objects plus the
// recording library (§4.4, §4.6); the verifier implements it with
// CheckOp/SimOp over the untrusted operation logs (§3.3, §4.5).
//
// Every state operation carries the issuing requestID and the running
// operation number. On the server, opnum is per-request; during grouped
// re-execution it is the per-group counter of Fig. 3, and the verifier's
// bridge is invoked once per lane with the same opnum.
type Bridge interface {
	// RegisterRead reads atomic register name (session data).
	RegisterRead(rid string, opnum int, name string) (Value, error)
	// RegisterWrite writes atomic register name.
	RegisterWrite(rid string, opnum int, name string, v Value) error
	// KvGet reads key from the linearizable key-value store (APC).
	KvGet(rid string, opnum int, key string) (Value, error)
	// KvSet writes key in the key-value store.
	KvSet(rid string, opnum int, key string, v Value) error
	// DBOp executes a transaction of one or more SQL statements against
	// the strictly serializable database and returns the per-statement
	// results as an array. A single-statement query is a one-element
	// transaction.
	DBOp(rid string, opnum int, stmts []string) (Value, error)
	// NonDet obtains the value of a non-deterministic builtin: the server
	// computes and records it; the verifier replays and plausibility-
	// checks it (§4.6). args are the (univalue) call arguments.
	NonDet(rid string, fn string, args []Value) (Value, error)
}

// RuntimeError is an application-level runtime error (bad SQL, missing
// function, illegal operand). On the server it becomes an error
// response; during an audit it causes rejection.
type RuntimeError struct {
	Msg  string
	Line int
}

func (e *RuntimeError) Error() string { return e.Msg }
