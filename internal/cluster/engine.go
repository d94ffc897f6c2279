package cluster

import "fmt"

// Engine selects which IR execution engine the runtime uses for kernels
// without a native implementation.  The lane-batched register machine
// (internal/vm) is the production engine; the tree-walking interpreter
// (internal/interp) is retained as the semantic oracle for differential
// testing.  Kernels with a registered native run it whatever the engine.
type Engine uint8

const (
	// EngineDefault defers the choice to the next configuration layer
	// (session -> cluster -> process default -> EngineVM).
	EngineDefault Engine = iota
	// EngineVM runs kernels on the compile-once register machine, which
	// dispatches each opcode over a warp-style batch of threads in lockstep.
	EngineVM
	// EngineInterp runs kernels on the reference tree-walking interpreter.
	EngineInterp
)

func (e Engine) String() string {
	switch e {
	case EngineVM:
		return "vm"
	case EngineInterp:
		return "interp"
	default:
		return "default"
	}
}

// ParseEngine parses a -engine flag value.  The empty string selects
// EngineDefault.  "vm-lanes", the name the vm had while it ran next to a
// scalar dispatcher, still parses as EngineVM: it is wire input on
// serve.Request and appears in existing scripts.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "default":
		return EngineDefault, nil
	case "vm", "vm-lanes":
		return EngineVM, nil
	case "interp":
		return EngineInterp, nil
	default:
		return EngineDefault, fmt.Errorf("cluster: unknown engine %q (want vm or interp)", s)
	}
}
