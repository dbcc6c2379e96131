package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Dump renders the spec as canonical indented JSON, the format Load
// reads back. Dump → Load round-trips to an identical spec (all rates
// are float64, which encoding/json round-trips exactly).
func Dump(s Spec) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("machine: encoding %s: %w", s.Name, err)
	}
	return append(b, '\n'), nil
}

// Load reads and validates a spec from a JSON file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("machine: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return Spec{}, fmt.Errorf("machine: %s: %w", path, err)
	}
	return s, nil
}

// Decode strictly parses one JSON spec and validates it: the one path
// spec files (Load) and frontier-serve's inline specs take. Unknown
// fields are rejected so a typo in a what-if spec fails loudly instead
// of silently keeping a default.
func Decode(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("parsing: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Resolve interprets a -machine argument: a built-in name ("frontier",
// "summit", …) or a path to a JSON spec file.
func Resolve(nameOrPath string) (Spec, error) {
	if s, err := ByName(nameOrPath); err == nil {
		return s, nil
	}
	if strings.ContainsAny(nameOrPath, "/.") {
		return Load(nameOrPath)
	}
	return Spec{}, fmt.Errorf("machine: unknown machine %q (built-ins: %v; or pass a JSON spec file)",
		nameOrPath, Names())
}
