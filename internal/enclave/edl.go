package enclave

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// MECallSpec declares one mECall from the EDL: its name and whether sRPC may
// stream it asynchronously (§IV-A: "we instrumented the format with the
// synchronization/asynchronization flag for sRPC").
type MECallSpec struct {
	Name  string
	Async bool
}

// EDL is the parsed mECall table.
type EDL struct {
	Calls map[string]MECallSpec
}

// ErrMalformedEDL is wrapped by every error ParseEDL returns.
var ErrMalformedEDL = errors.New("enclave: malformed EDL")

// ParseEDL parses the EDL dialect. The format is line oriented:
//
//	// comments and blank lines are ignored
//	mecall <name> sync
//	mecall <name> async
//
// Unknown directives are rejected so a tampered EDL cannot silently widen
// the call surface, and so is a line too long to read whole, which would
// otherwise end the table early. Every refusal wraps ErrMalformedEDL.
func ParseEDL(data []byte) (*EDL, error) {
	edl := &EDL{Calls: make(map[string]MECallSpec)}
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "//") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 || fields[0] != "mecall" {
			return nil, fmt.Errorf("%w: line %d: expected \"mecall <name> sync|async\", got %q", ErrMalformedEDL, line, text)
		}
		name := fields[1]
		if _, dup := edl.Calls[name]; dup {
			return nil, fmt.Errorf("%w: line %d: duplicate mecall %q", ErrMalformedEDL, line, name)
		}
		var async bool
		switch fields[2] {
		case "sync":
			async = false
		case "async":
			async = true
		default:
			return nil, fmt.Errorf("%w: line %d: bad flag %q", ErrMalformedEDL, line, fields[2])
		}
		edl.Calls[name] = MECallSpec{Name: name, Async: async}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: after line %d: %v", ErrMalformedEDL, line, err)
	}
	return edl, nil
}

// BuildEDL serializes mECall specs into EDL text (test/example helper).
func BuildEDL(specs ...MECallSpec) []byte {
	var b bytes.Buffer
	b.WriteString("// CRONUS EDL\n")
	for _, s := range specs {
		flag := "sync"
		if s.Async {
			flag = "async"
		}
		fmt.Fprintf(&b, "mecall %s %s\n", s.Name, flag)
	}
	return b.Bytes()
}

// Lookup returns the spec for a call name.
func (e *EDL) Lookup(name string) (MECallSpec, bool) {
	s, ok := e.Calls[name]
	return s, ok
}

// LookupBytes is Lookup for a name still in its wire bytes: the conversion in
// the map index builds no string.
func (e *EDL) LookupBytes(name []byte) (MECallSpec, bool) {
	s, ok := e.Calls[string(name)]
	return s, ok
}
