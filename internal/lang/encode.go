package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// EncodeValue serializes v into a canonical, self-delimiting string (in
// the spirit of PHP's serialize()). Two deep-equal values always encode
// identically, so the verifier can compare logged operation contents
// against re-execution by byte equality (§3.3). Multivalues cannot be
// encoded; they never appear in operation contents (ops are issued
// per-lane).
func EncodeValue(v Value) string {
	var b strings.Builder
	encodeValue(&b, v)
	return b.String()
}

func encodeValue(b *strings.Builder, v Value) {
	switch x := v.(type) {
	case nil:
		b.WriteString("N;")
	case bool:
		if x {
			b.WriteString("b:1;")
		} else {
			b.WriteString("b:0;")
		}
	case int64:
		b.WriteString("i:")
		b.WriteString(strconv.FormatInt(x, 10))
		b.WriteByte(';')
	case float64:
		b.WriteString("d:")
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		b.WriteByte(';')
	case string:
		b.WriteString("s:")
		b.WriteString(strconv.Itoa(len(x)))
		b.WriteByte(':')
		b.WriteString(x)
		b.WriteByte(';')
	case *Array:
		b.WriteString("a:")
		b.WriteString(strconv.Itoa(x.Len()))
		b.WriteByte(':')
		for _, e := range x.ents {
			encodeValue(b, e.k.Value())
			encodeValue(b, e.v)
		}
		b.WriteByte(';')
	case *Multi:
		panic("lang: cannot encode a multivalue")
	default:
		panic(fmt.Sprintf("lang: cannot encode %T", v))
	}
}

// DecodeValue parses a string produced by EncodeValue.
func DecodeValue(s string) (Value, error) {
	v, rest, err := decodeValue(s)
	if err != nil {
		return nil, err
	}
	if rest != "" {
		return nil, fmt.Errorf("lang: trailing garbage in encoded value: %q", rest)
	}
	return v, nil
}

func decodeValue(s string) (Value, string, error) {
	if s == "" {
		return nil, "", fmt.Errorf("lang: empty encoded value")
	}
	switch s[0] {
	case 'N':
		if !strings.HasPrefix(s, "N;") {
			return nil, "", fmt.Errorf("lang: bad null encoding")
		}
		return nil, s[2:], nil
	case 'b':
		if strings.HasPrefix(s, "b:1;") {
			return true, s[4:], nil
		}
		if strings.HasPrefix(s, "b:0;") {
			return false, s[4:], nil
		}
		return nil, "", fmt.Errorf("lang: bad bool encoding")
	case 'i':
		body, rest, err := untilSemicolon(s, "i:")
		if err != nil {
			return nil, "", err
		}
		n, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return nil, "", fmt.Errorf("lang: bad int encoding: %v", err)
		}
		return n, rest, nil
	case 'd':
		body, rest, err := untilSemicolon(s, "d:")
		if err != nil {
			return nil, "", err
		}
		f, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return nil, "", fmt.Errorf("lang: bad float encoding: %v", err)
		}
		return f, rest, nil
	case 's':
		if !strings.HasPrefix(s, "s:") {
			return nil, "", fmt.Errorf("lang: bad string encoding")
		}
		rest := s[2:]
		colon := strings.IndexByte(rest, ':')
		if colon < 0 {
			return nil, "", fmt.Errorf("lang: bad string length")
		}
		n, err := strconv.Atoi(rest[:colon])
		if err != nil || n < 0 {
			return nil, "", fmt.Errorf("lang: bad string length %q", rest[:colon])
		}
		rest = rest[colon+1:]
		if len(rest) < n+1 || rest[n] != ';' {
			return nil, "", fmt.Errorf("lang: truncated string encoding")
		}
		return rest[:n], rest[n+1:], nil
	case 'a':
		if !strings.HasPrefix(s, "a:") {
			return nil, "", fmt.Errorf("lang: bad array encoding")
		}
		rest := s[2:]
		colon := strings.IndexByte(rest, ':')
		if colon < 0 {
			return nil, "", fmt.Errorf("lang: bad array length")
		}
		n, err := strconv.Atoi(rest[:colon])
		if err != nil || n < 0 {
			return nil, "", fmt.Errorf("lang: bad array length %q", rest[:colon])
		}
		rest = rest[colon+1:]
		arr := NewArray()
		for i := 0; i < n; i++ {
			var kv, vv Value
			kv, rest, err = decodeValue(rest)
			if err != nil {
				return nil, "", err
			}
			vv, rest, err = decodeValue(rest)
			if err != nil {
				return nil, "", err
			}
			k, err := NormalizeKey(kv)
			if err != nil {
				return nil, "", err
			}
			arr.Set(k, vv)
		}
		if len(rest) == 0 || rest[0] != ';' {
			return nil, "", fmt.Errorf("lang: unterminated array encoding")
		}
		return arr, rest[1:], nil
	default:
		return nil, "", fmt.Errorf("lang: unknown encoding tag %q", s[0])
	}
}

func untilSemicolon(s, prefix string) (body, rest string, err error) {
	if !strings.HasPrefix(s, prefix) {
		return "", "", fmt.Errorf("lang: expected prefix %q", prefix)
	}
	s = s[len(prefix):]
	i := strings.IndexByte(s, ';')
	if i < 0 {
		return "", "", fmt.Errorf("lang: missing terminator")
	}
	return s[:i], s[i+1:], nil
}
