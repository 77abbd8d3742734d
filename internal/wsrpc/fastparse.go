package wsrpc

import "falkon/internal/jsonwire"

// frameView is a zero-copy view of a parsed envelope: method, errs, and body
// alias the connection's read buffer and are valid only until the function
// its read session handed the frame to returns. Consumers that retain bytes
// past that point must copy.
type frameView struct {
	kind   frameKind
	seq    uint64
	method []byte
	errs   []byte
	recvNS int64
	sendNS int64
	body   []byte
}

// parseFrame is what both read loops make of a frame: the fast parse, or for
// any other layout the wire language admits, encoding/json's.
func parseFrame(raw []byte) (frameView, error) {
	if v, ok := fastParseFrame(raw); ok {
		return v, nil
	}
	f, err := decodeFrame(raw)
	if err != nil {
		return frameView{}, err
	}
	return frameView{kind: f.Kind, seq: f.Seq, method: []byte(f.Method), errs: []byte(f.Err),
		recvNS: f.RecvNS, sendNS: f.SendNS, body: f.Body}, nil
}

// fastParseFrame parses the canonical envelope layout that both appendFrame
// and encoding/json emit for the frame struct:
//
//	{"k":N,"seq":N[,"m":"..."][,"e":"..."][,"rt":N][,"st":N][,"b":...]}
//
// in that field order, with no whitespace. It returns ok=false for anything
// non-canonical — reordered or unknown fields (an older peer's tr/ps among
// them), escaped strings, whitespace, numbers with leading zeros — and the
// caller falls back to decodeFrame, so
// the accepted wire language is unchanged; this is purely an allocation-free
// shortcut for the common case.
// The body slice is not validated as JSON here: it is json.Unmarshal'ed by
// whoever consumes it, which reports garbage exactly like decodeFrame did.
func fastParseFrame(raw []byte) (frameView, bool) {
	var v frameView
	p := raw
	if !jsonwire.HasPrefix(p, `{"k":`) {
		return v, false
	}
	p = p[5:]
	k, p, ok := jsonwire.ParseUint(p)
	if !ok || k < uint64(kindCall) || k > uint64(kindNotify) {
		return v, false
	}
	v.kind = frameKind(k)
	if !jsonwire.HasPrefix(p, `,"seq":`) {
		return v, false
	}
	v.seq, p, ok = jsonwire.ParseUint(p[7:])
	if !ok {
		return v, false
	}
	if jsonwire.HasPrefix(p, `,"m":"`) {
		v.method, p, ok = jsonwire.ParsePlainString(p[6:])
		if !ok {
			return v, false
		}
	}
	if jsonwire.HasPrefix(p, `,"e":"`) {
		v.errs, p, ok = jsonwire.ParsePlainString(p[6:])
		if !ok {
			return v, false
		}
	}
	if jsonwire.HasPrefix(p, `,"rt":`) {
		v.recvNS, p, ok = jsonwire.ParseInt(p[6:])
		if !ok {
			return v, false
		}
	}
	if jsonwire.HasPrefix(p, `,"st":`) {
		v.sendNS, p, ok = jsonwire.ParseInt(p[6:])
		if !ok {
			return v, false
		}
	}
	if jsonwire.HasPrefix(p, `,"b":`) {
		p = p[5:]
		if len(p) < 2 || p[len(p)-1] != '}' {
			return v, false
		}
		v.body = p[:len(p)-1]
		return v, true
	}
	return v, len(p) == 1 && p[0] == '}'
}
