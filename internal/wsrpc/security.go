package wsrpc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"time"
)

// SecurityProfile selects the per-connection security mode, mirroring the
// paper's "no security" vs "GSISecureConversation" configurations (§4.1).
type SecurityProfile uint8

const (
	// SecurityNone sends frames in the clear.
	SecurityNone SecurityProfile = iota
	// SecuritySecureConversation performs a mutual pre-shared-key handshake
	// and then encrypts (AES-256-CTR) and authenticates (HMAC-SHA256) every
	// frame. Like GSISecureConversation it charges real per-message CPU,
	// which is what halves dispatcher throughput in Figure 3.
	SecuritySecureConversation
)

// String names the profile.
func (s SecurityProfile) String() string {
	switch s {
	case SecurityNone:
		return "none"
	case SecuritySecureConversation:
		return "secure-conversation"
	default:
		return fmt.Sprintf("security(%d)", uint8(s))
	}
}

// ErrBadMAC reports an authentication failure on a received frame.
var ErrBadMAC = errors.New("wsrpc: frame authentication failed")

// errHandshake reports a failed security handshake.
var errHandshake = errors.New("wsrpc: security handshake failed")

const nonceLen = 32

// handshakeTimeout bounds the secure profile's nonce and proof exchange. A
// peer that connects and stalls — or one speaking the plaintext profile,
// whose first frame reads as a nonce and whose proof never comes — would
// otherwise pin a goroutine (and, on the server, a connection) for ever.
const handshakeTimeout = 10 * time.Second

// secureConn wraps a net.Conn with framewise AES-CTR encryption and
// HMAC-SHA256 authentication, keyed from a pre-shared key and per-connection
// nonces. Sealing happens in place inside the cork buffer — the envelope is
// appended, encrypted where it lies, and MAC'd with a persistent (Reset)
// HMAC state, so the send path allocates nothing per frame. The CTR stream
// and send counter are guarded by the cork mutex, which already serializes
// frame order; the receive side is single-reader by the frameConn contract.
type secureConn struct {
	cw      corkedWriter
	sendC   cipher.Stream
	sendMAC hash.Hash
	sendN   uint64
	sendCnt [8]byte // MAC counter scratch, guarded by cw's mutex

	fr      frameReader // yields records: ciphertext, then its MAC
	macBuf  []byte
	recvC   cipher.Stream
	recvMAC hash.Hash
	recvN   uint64
	recvCnt [8]byte // MAC counter scratch, single-reader like fr
}

// newSecureConn runs the handshake (client initiates), which must finish
// within timeout, and returns the secured frame transport.
func newSecureConn(c net.Conn, psk []byte, isClient bool, stats flushStats, timeout, stall time.Duration) (*secureConn, error) {
	if len(psk) == 0 {
		return nil, fmt.Errorf("%w: empty pre-shared key", errHandshake)
	}
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("%w: %v", errHandshake, err)
	}
	// Cleared whatever the outcome: on failure the caller closes c anyway.
	defer c.SetDeadline(time.Time{})
	var myNonce, peerNonce [nonceLen]byte
	if _, err := rand.Read(myNonce[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", errHandshake, err)
	}
	// The handshake's messages are read from c at their exact lengths, so not
	// a byte of the first frame behind them is taken from the read session.
	send := func(b []byte) error {
		_, err := c.Write(b)
		return err
	}
	// Exchange nonces: client sends first, server responds. Then both sides
	// prove key possession with an HMAC over both nonces.
	if isClient {
		if err := send(myNonce[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", errHandshake, err)
		}
		if _, err := io.ReadFull(c, peerNonce[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", errHandshake, err)
		}
	} else {
		if _, err := io.ReadFull(c, peerNonce[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", errHandshake, err)
		}
		if err := send(myNonce[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", errHandshake, err)
		}
	}
	var clientNonce, serverNonce []byte
	if isClient {
		clientNonce, serverNonce = myNonce[:], peerNonce[:]
	} else {
		clientNonce, serverNonce = peerNonce[:], myNonce[:]
	}
	proofLabel := func(who string) []byte {
		m := hmac.New(sha256.New, psk)
		m.Write([]byte("proof:" + who))
		m.Write(clientNonce)
		m.Write(serverNonce)
		return m.Sum(nil)
	}
	myWho, peerWho := "server", "client"
	if isClient {
		myWho, peerWho = "client", "server"
	}
	if err := send(proofLabel(myWho)); err != nil {
		return nil, fmt.Errorf("%w: %v", errHandshake, err)
	}
	var peerProof [sha256.Size]byte
	if _, err := io.ReadFull(c, peerProof[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", errHandshake, err)
	}
	if subtle.ConstantTimeCompare(peerProof[:], proofLabel(peerWho)) != 1 {
		return nil, fmt.Errorf("%w: peer proof mismatch", errHandshake)
	}

	derive := func(label string) []byte {
		m := hmac.New(sha256.New, psk)
		m.Write([]byte(label))
		m.Write(clientNonce)
		m.Write(serverNonce)
		return m.Sum(nil)
	}
	mkStream := func(key []byte) cipher.Stream {
		blk, err := aes.NewCipher(key) // 32 bytes -> AES-256
		if err != nil {
			panic("wsrpc: aes key size: " + err.Error())
		}
		iv := derive("iv:" + string(key[:8]))[:aes.BlockSize]
		return cipher.NewCTR(blk, iv)
	}
	c2sEnc, s2cEnc := derive("enc:c2s"), derive("enc:s2c")
	c2sMac, s2cMac := derive("mac:c2s"), derive("mac:s2c")

	sc := &secureConn{macBuf: make([]byte, 0, sha256.Size)}
	sc.fr.init(c, sha256.Size)
	sc.cw.init(c, stats, stall)
	if isClient {
		sc.sendC, sc.sendMAC = mkStream(c2sEnc), hmac.New(sha256.New, c2sMac)
		sc.recvC, sc.recvMAC = mkStream(s2cEnc), hmac.New(sha256.New, s2cMac)
	} else {
		sc.sendC, sc.sendMAC = mkStream(s2cEnc), hmac.New(sha256.New, s2cMac)
		sc.recvC, sc.recvMAC = mkStream(c2sEnc), hmac.New(sha256.New, c2sMac)
	}
	return sc, nil
}

// sealLocked encrypts buf[start+4:] in place, backfills the length prefix,
// and appends the frame MAC over (counter, ciphertext). Must run with the
// cork mutex held (beginFrame) — the CTR stream and counter are stateful and
// must advance in wire order.
func (s *secureConn) sealLocked(buf []byte, start int) []byte {
	ct := buf[start+4:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(ct)))
	s.sendC.XORKeyStream(ct, ct)
	binary.BigEndian.PutUint64(s.sendCnt[:], s.sendN)
	s.sendN++
	s.sendMAC.Reset()
	s.sendMAC.Write(s.sendCnt[:])
	s.sendMAC.Write(ct)
	return s.sendMAC.Sum(buf)
}

func (s *secureConn) WriteEnvelope(kind frameKind, seq uint64, method, errStr string, meta envMeta, body frameBody) (int, error) {
	buf, now, err := s.cw.beginFrame(meta.now)
	if err != nil {
		return 0, err
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = appendFrame(buf, kind, seq, method, errStr, meta, body)
	n := len(buf) - start - 4
	if n > MaxFrameSize {
		s.cw.cancel(buf[:start])
		return 0, fmt.Errorf("wsrpc: frame of %d bytes exceeds limit", n)
	}
	return n, s.cw.endFrame(s.sealLocked(buf, start), now)
}

func (s *secureConn) WriteFrame(b []byte) error {
	if len(b) > MaxFrameSize {
		return fmt.Errorf("wsrpc: frame of %d bytes exceeds limit", len(b))
	}
	buf, now, err := s.cw.beginFrame(time.Time{})
	if err != nil {
		return err
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, b...)
	return s.cw.endFrame(s.sealLocked(buf, start), now)
}

// ReadFrames opens each record the session yields — MAC over (counter,
// ciphertext) checked, then decrypted where it lies — and hands fn the
// plaintext.
func (s *secureConn) ReadFrames(fn func(raw []byte) error) error {
	return s.fr.run(func(rec []byte) error {
		n := len(rec) - sha256.Size
		ct, mac := rec[:n], rec[n:]
		binary.BigEndian.PutUint64(s.recvCnt[:], s.recvN)
		s.recvMAC.Reset()
		s.recvMAC.Write(s.recvCnt[:])
		s.recvMAC.Write(ct)
		s.macBuf = s.recvMAC.Sum(s.macBuf[:0])
		if subtle.ConstantTimeCompare(mac, s.macBuf) != 1 {
			return ErrBadMAC
		}
		s.recvN++
		s.recvC.XORKeyStream(ct, ct)
		return fn(ct)
	})
}

func (s *secureConn) Close() error { return s.cw.close() }

// newFrameConn wraps c according to the profile; psk is required for the
// secure profile, whose handshake must finish within handshake; stall is the
// corked writer's write-stall bound. stats instruments the corked write path
// (zero value for unmetered connections).
func newFrameConn(c net.Conn, profile SecurityProfile, psk []byte, isClient bool, stats flushStats, handshake, stall time.Duration) (frameConn, error) {
	switch profile {
	case SecurityNone:
		return newPlainConn(c, stats, stall), nil
	case SecuritySecureConversation:
		return newSecureConn(c, psk, isClient, stats, handshake, stall)
	default:
		return nil, fmt.Errorf("wsrpc: unknown security profile %v", profile)
	}
}
