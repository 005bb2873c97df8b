package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// response is a /query answer in the benchmark's own terms. decodeResponse
// is the only place that knows the wire shape, and it accepts both the
// per-solution maps served today ("solutions": [{"x": "e1"}, ...]) and a
// columnar body ({"vars": [...], "rows": [[...], ...]}, at the top level
// or under "solutions"), so a change of result encoding needs no change
// here.
type response struct {
	count     int
	cached    bool
	shared    bool
	timedOut  bool
	elapsedMS float64
	stats     *wireStats
	// vars and raw are the solution payload: raw holds the JSON rows
	// (columnar) or the per-solution maps; their fingerprint identifies a
	// repeat of an answer already verified.
	vars     []string
	columnar bool
	raw      []byte
}

type wireStats struct {
	Leaps         int `json:"leaps"`
	Binds         int `json:"binds"`
	Seeks         int `json:"seeks"`
	Enumerations  int `json:"enumerations"`
	BatchDescents int `json:"batch_descents"`
	BatchEmits    int `json:"batch_emits"`
}

type wireResponse struct {
	Solutions json.RawMessage `json:"solutions"`
	Vars      []string        `json:"vars"`
	Rows      json.RawMessage `json:"rows"`
	Count     *int            `json:"count"`
	Cached    bool            `json:"cached"`
	Shared    bool            `json:"shared"`
	TimedOut  bool            `json:"timed_out"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Stats     *wireStats      `json:"stats"`
}

type columnar struct {
	Vars []string        `json:"vars"`
	Rows json.RawMessage `json:"rows"`
}

func decodeResponse(body []byte) (*response, error) {
	var w wireResponse
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, fmt.Errorf("undecodable response: %v", err)
	}
	r := &response{cached: w.Cached, shared: w.Shared, timedOut: w.TimedOut, elapsedMS: w.ElapsedMS, stats: w.Stats, count: -1}
	if w.Count != nil {
		r.count = *w.Count
	}
	switch {
	case w.Rows != nil:
		r.columnar, r.vars, r.raw = true, w.Vars, w.Rows
	case len(bytes.TrimSpace(w.Solutions)) > 0 && bytes.TrimSpace(w.Solutions)[0] == '{':
		var c columnar
		if err := json.Unmarshal(w.Solutions, &c); err != nil {
			return nil, fmt.Errorf("undecodable columnar solutions: %v", err)
		}
		r.columnar, r.vars, r.raw = true, c.Vars, c.Rows
	default:
		r.raw = w.Solutions
	}
	return r, nil
}

func (r *response) fingerprint() uint64 {
	h := fnv.New64a()
	for _, v := range r.vars {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	h.Write(r.raw)
	return h.Sum64()
}

// rows decodes the solution payload into one variable→term map per row.
func (r *response) rows() ([]map[string]string, error) {
	if r.columnar {
		return columnar{Vars: r.vars, Rows: r.raw}.maps()
	}
	var maps []map[string]string
	if err := json.Unmarshal(r.raw, &maps); err != nil {
		return nil, fmt.Errorf("undecodable solutions: %v", err)
	}
	return maps, nil
}

func (c columnar) maps() ([]map[string]string, error) {
	var rows [][]string
	if err := json.Unmarshal(c.Rows, &rows); err != nil {
		return nil, fmt.Errorf("undecodable rows: %v", err)
	}
	out := make([]map[string]string, len(rows))
	for i, row := range rows {
		if len(row) != len(c.Vars) {
			return nil, fmt.Errorf("row %d has %d values for %d vars", i, len(row), len(c.Vars))
		}
		m := make(map[string]string, len(row))
		for j, v := range c.Vars {
			m[v] = row[j]
		}
		out[i] = m
	}
	return out, nil
}

// rowKey joins a row's values of vars, in order, into one comparable key.
func rowKey(row map[string]string, vars []string) (string, bool) {
	var b bytes.Buffer
	for i, v := range vars {
		t, ok := row[v]
		if !ok {
			return "", false
		}
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(t)
	}
	return b.String(), true
}
