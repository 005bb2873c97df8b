package server

// The /query result encoder. A response body is columnar:
//
//	{"vars":["x","y"],"rows":[["alice","bob"],["bob","carol"]],"count":2,
//	 "elapsed_ms":0.41,"cached":false,"timed_out":true,"shared":true,
//	 "stats":{"leaps":12,"binds":9,"seeks":3,"enumerations":0}}
//
// and is written by appending bytes, with no reflection, no map-key
// sorting and no per-solution map: each ID is decoded straight from the
// dictionary's term tables into the buffer as a JSON string. The body
// splits in two. encodeRows writes the result fragment, from the opening
// brace through "count"; it depends only on the query and the index
// version, so it is what the result cache stores. resultMeta.appendTail
// writes the per-request fields after it and closes the object. A cache
// hit is therefore two writes of bytes already in hand: the cached
// fragment and the tail.

import (
	"net/http"
	"strconv"
	"unicode/utf8"

	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/ltj"
)

// encodeRows returns `{"vars":[...],"rows":[[...],...],"count":N`: one
// row per solution, holding the solution's terms in vars order. A
// variable in predVars decodes in the predicate space, every other one
// in the subject/object space.
func encodeRows(vars []string, predVars map[string]bool, terms dict.Terms, sols []graph.Binding) []byte {
	// Sized for ~10-byte quoted terms, so typical IRIs cost at most one
	// doubling.
	dst := make([]byte, 0, 64+len(sols)*(2+12*len(vars)))
	dst = append(dst, `{"vars":[`...)
	pred := make([]bool, len(vars))
	for i, v := range vars {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, v)
		pred[i] = predVars[v]
	}
	dst = append(dst, `],"rows":[`...)
	for i, b := range sols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range vars {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, terms.Decode(b[v], pred[j]))
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `],"count":`...)
	return strconv.AppendInt(dst, int64(len(sols)), 10)
}

// resultMeta is the per-request part of a /query response, written
// after the rows fragment. Stats is nil on cache hits and empty results.
type resultMeta struct {
	elapsedMS                float64
	cached, timedOut, shared bool
	stats                    *ltj.EvalStats
}

// appendTail appends the per-request fields and closes the body.
func (m resultMeta) appendTail(dst []byte) []byte {
	dst = append(dst, `,"elapsed_ms":`...)
	dst = strconv.AppendFloat(dst, m.elapsedMS, 'f', -1, 64)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, m.cached)
	if m.timedOut {
		dst = append(dst, `,"timed_out":true`...)
	}
	if m.shared {
		dst = append(dst, `,"shared":true`...)
	}
	if st := m.stats; st != nil {
		dst = appendIntField(dst, `,"stats":{"leaps":`, st.Leaps)
		dst = appendIntField(dst, `,"binds":`, st.Binds)
		dst = appendIntField(dst, `,"seeks":`, st.Seeks)
		dst = appendIntField(dst, `,"enumerations":`, st.Enumerations)
		if st.BatchDescents != 0 {
			dst = appendIntField(dst, `,"batch_descents":`, st.BatchDescents)
		}
		if st.BatchEmits != 0 {
			dst = appendIntField(dst, `,"batch_emits":`, st.BatchEmits)
		}
		dst = append(dst, '}')
	}
	return append(dst, "}\n"...)
}

func appendIntField(dst []byte, name string, v int) []byte {
	return strconv.AppendInt(append(dst, name...), int64(v), 10)
}

// writeRows writes a 200 /query response: a rows fragment, then the
// per-request tail.
func writeRows(w http.ResponseWriter, rows []byte, m resultMeta) {
	tail := m.appendTail(make([]byte, 0, 192))
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(rows)+len(tail)))
	w.WriteHeader(http.StatusOK)
	w.Write(rows)
	w.Write(tail)
}

// appendJSONString appends s as a JSON string, byte for byte what
// json.Marshal(s) produces: HTML-significant <, > and & escaped, invalid
// UTF-8 replaced by \ufffd, and U+2028/U+2029 escaped
// (FuzzAppendJSONString holds the two to the same output).
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
