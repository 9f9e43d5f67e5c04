package main

import "testing"

func TestParseSamples(t *testing.T) {
	for _, tc := range []struct {
		name, text, series string
		want               float64
		ok                 bool
	}{
		{"integer", "dinerd_grants_total 42\n", "dinerd_grants_total", 42, true},
		{"exponent form", "dinerd_messages_sent_total 1.234567e+06\n", "dinerd_messages_sent_total", 1234567, true},
		{"fraction", "dinerd_hotkey_fraction 0.25\n", "dinerd_hotkey_fraction", 0.25, true},
		{"labelled line", `dinerd_node_state{node="0",shard="1"} 3` + "\n", `dinerd_node_state{node="0",shard="1"}`, 0, false},
		{"comment line", "# TYPE dinerd_grants_total counter\n", "#", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vals := parseSamples(tc.text)
			got, ok := vals[tc.series]
			if ok != tc.ok || got != tc.want {
				t.Fatalf("%s = %v (present %v), want %v (present %v)", tc.series, got, ok, tc.want, tc.ok)
			}
			if !tc.ok && len(vals) != 0 {
				t.Fatalf("parsed %v from a line that holds no unlabelled sample", vals)
			}
		})
	}
}
