package replica

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func sharedLease(path, id, addr string, ttl time.Duration) *Lease {
	return &Lease{Path: path, TTL: ttl, ID: id, Addr: addr}
}

func TestLeaseAcquireRenewExclusion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease")
	l1 := sharedLease(path, "n1", "addr1", time.Hour)
	l2 := sharedLease(path, "n2", "addr2", time.Hour)

	st, won, err := l1.TakeOver()
	if err != nil || !won {
		t.Fatalf("first acquire: won=%v err=%v", won, err)
	}
	if st.Term != 1 || st.Holder != "n1" || st.Addr != "addr1" {
		t.Fatalf("first acquire state: %+v", st)
	}

	// A live lease excludes other nodes and reports the current holder.
	st2, won, err := l2.TakeOver()
	if err != nil || won {
		t.Fatalf("contending acquire: won=%v err=%v", won, err)
	}
	if st2.Holder != "n1" || st2.Term != 1 {
		t.Fatalf("contending acquire sees %+v", st2)
	}
	if ok, err := l2.Renew(); err != nil || ok {
		t.Fatalf("foreign renew: ok=%v err=%v", ok, err)
	}

	// Renewal in place keeps the term.
	if ok, err := l1.Renew(); err != nil || !ok {
		t.Fatalf("holder renew: ok=%v err=%v", ok, err)
	}
	rd, err := l1.Read()
	if err != nil || rd.Term != 1 || rd.Holder != "n1" {
		t.Fatalf("read after renew: %+v err=%v", rd, err)
	}
}

func TestLeaseExpiryBumpsTerm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease")
	ttl := 30 * time.Millisecond
	l1 := sharedLease(path, "n1", "addr1", ttl)
	l2 := sharedLease(path, "n2", "addr2", ttl)

	if _, won, err := l1.TakeOver(); err != nil || !won {
		t.Fatalf("acquire: won=%v err=%v", won, err)
	}
	time.Sleep(2 * ttl)

	// Expired: the old holder must not renew (fail-stop) …
	if ok, err := l1.Renew(); err != nil || ok {
		t.Fatalf("renew past TTL: ok=%v err=%v", ok, err)
	}
	// … and the takeover serves a strictly newer term.
	st, won, err := l2.TakeOver()
	if err != nil || !won {
		t.Fatalf("takeover: won=%v err=%v", won, err)
	}
	if st.Term != 2 || st.Holder != "n2" {
		t.Fatalf("takeover state: %+v", st)
	}

	// Even the same node re-acquiring its own expired lease is a new
	// incarnation: term 3, not a resumed term 2.
	time.Sleep(2 * ttl)
	st2, won, err := l2.TakeOver()
	if err != nil || !won || st2.Term != 3 {
		t.Fatalf("expiry re-acquire by same holder: won=%v state=%+v err=%v", won, st2, err)
	}
}

func TestLeaseTakeOverBumpsOwnLiveTerm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease")
	l1 := sharedLease(path, "n1", "addr1", time.Hour)

	if st, won, err := l1.TakeOver(); err != nil || !won || st.Term != 1 {
		t.Fatalf("acquire: won=%v state=%+v err=%v", won, st, err)
	}

	// A crash-restarted process finds its own still-live lease. Renewing it
	// in place at the same term is exactly what a new incarnation must NOT
	// do, so TakeOver bumps even a self-held live lease.
	restarted := sharedLease(path, "n1", "addr1", time.Hour)
	st, won, err := restarted.TakeOver()
	if err != nil || !won {
		t.Fatalf("takeover of own live lease: won=%v err=%v", won, err)
	}
	if st.Term != 2 || st.Holder != "n1" {
		t.Fatalf("takeover state: %+v", st)
	}

	// TakeOver still respects a live foreign lease.
	l2 := sharedLease(path, "n2", "addr2", time.Hour)
	if st, won, err := l2.TakeOver(); err != nil || won {
		t.Fatalf("foreign takeover of live lease: won=%v state=%+v err=%v", won, st, err)
	}
}

func TestLeaseReleaseHandsOverImmediately(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease")
	l1 := sharedLease(path, "n1", "addr1", time.Hour)
	l2 := sharedLease(path, "n2", "addr2", time.Hour)

	if _, won, err := l1.TakeOver(); err != nil || !won {
		t.Fatalf("acquire: won=%v err=%v", won, err)
	}
	if err := l1.Release(); err != nil {
		t.Fatal(err)
	}
	st, won, err := l2.TakeOver()
	if err != nil || !won || st.Term != 2 {
		t.Fatalf("acquire after release: won=%v state=%+v err=%v", won, st, err)
	}
	// Releasing a lease someone else now holds is a no-op.
	if err := l1.Release(); err != nil {
		t.Fatal(err)
	}
	if rd, _ := l2.Read(); rd.Holder != "n2" || rd.Expired(time.Now()) {
		t.Fatalf("foreign release disturbed the lease: %+v", rd)
	}
}

func TestRunNodeElectionTermsAreMonotonic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease")
	lease := &Lease{Path: path, TTL: 200 * time.Millisecond}

	mirrors := t.TempDir()
	runNode := func(id string, promoted chan uint64, stop chan struct{}, errc chan error) {
		errc <- RunNode(NodeOptions{
			Lease:   &Lease{Path: lease.Path, TTL: lease.TTL, ID: id, Addr: "127.0.0.1:0"},
			Standby: StandbyOptions{Dir: filepath.Join(mirrors, id)},
			Promote: func(term uint64) error {
				promoted <- term
				return nil
			},
			Logf: t.Logf,
			Stop: stop,
		})
	}

	p1, stop1, err1 := make(chan uint64, 1), make(chan struct{}), make(chan error, 1)
	go runNode("n1", p1, stop1, err1)
	var term1 uint64
	select {
	case term1 = <-p1:
	case <-time.After(5 * time.Second):
		t.Fatal("node 1 never promoted")
	}

	// While n1 leads, n2 must stay standby.
	p2, stop2, err2 := make(chan uint64, 1), make(chan struct{}), make(chan error, 1)
	go runNode("n2", p2, stop2, err2)
	select {
	case term := <-p2:
		t.Fatalf("node 2 promoted (term %d) while node 1 held the lease", term)
	case <-time.After(500 * time.Millisecond):
	}

	// Graceful stop releases the lease; n2 takes over at a strictly newer term.
	close(stop1)
	if err := <-err1; !errors.Is(err, ErrNodeStopped) {
		t.Fatalf("node 1 exit: %v", err)
	}
	var term2 uint64
	select {
	case term2 = <-p2:
	case <-time.After(5 * time.Second):
		t.Fatal("node 2 never promoted after node 1 stopped")
	}
	if term2 <= term1 {
		t.Fatalf("terms not monotonic: node 1 term %d, node 2 term %d", term1, term2)
	}
	close(stop2)
	if err := <-err2; !errors.Is(err, ErrNodeStopped) {
		t.Fatalf("node 2 exit: %v", err)
	}
}
