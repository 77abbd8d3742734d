package fproto

import (
	"encoding/json"
	"testing"
)

// Wire compatibility pins for the multi-tenant fields: a tenantless
// (pre-tenancy) peer and a tenant-aware peer must interoperate in both
// directions. The "old" structs below are the pre-tenancy message shapes,
// frozen as they were on the wire.

type oldCreateInstanceRequest struct {
	ClientName        string `json:"client,omitempty"`
	WantNotifications bool   `json:"want_notifications,omitempty"`
	EPR               string `json:"epr,omitempty"`
	Cluster           string `json:"cluster,omitempty"`
}

type oldSubmitReply struct {
	Accepted int           `json:"accepted"`
	Deduped  int           `json:"deduped,omitempty"`
	Capacity *CapacityHint `json:"capacity,omitempty"`
}

// TestTenantlessClientAgainstTenantAwareDispatcher: an old client's create
// request (no tenant field on the wire) must decode with Tenant == "",
// which the dispatcher maps to the "default" tenant.
func TestTenantlessClientAgainstTenantAwareDispatcher(t *testing.T) {
	raw, err := json.Marshal(oldCreateInstanceRequest{ClientName: "legacy", WantNotifications: true})
	if err != nil {
		t.Fatal(err)
	}
	var req CreateInstanceRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		t.Fatalf("tenant-aware decode of tenantless request: %v", err)
	}
	if req.Tenant != "" {
		t.Fatalf("Tenant = %q, want empty (defaulted dispatcher-side)", req.Tenant)
	}
	// want_notifications, which every client sent before results reached a
	// client only by push, is dropped.
	if req.ClientName != "legacy" {
		t.Fatalf("fields lost in decode: %+v", req)
	}
	// And the old reply shape still satisfies a new client.
	rawReply := []byte(`{"accepted":5,"deduped":1}`)
	var rep SubmitReply
	if err := json.Unmarshal(rawReply, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 5 || rep.RetryAfterMillis != 0 {
		t.Fatalf("old reply decoded wrong: %+v", rep)
	}
}

// TestTenantAwareClientAgainstTenantlessDispatcher: the new request's
// tenant field must be ignorable — an old dispatcher decodes the rest of
// the message unchanged (Go's json drops unknown fields).
func TestTenantAwareClientAgainstTenantlessDispatcher(t *testing.T) {
	raw, err := json.Marshal(CreateInstanceRequest{ClientName: "new", Tenant: "analytics"})
	if err != nil {
		t.Fatal(err)
	}
	var old oldCreateInstanceRequest
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatalf("tenantless decode of tenant-aware request: %v", err)
	}
	if old.ClientName != "new" {
		t.Fatalf("fields lost in decode: %+v", old)
	}
	// A default-tenant request is byte-identical to the old shape: the
	// field is omitempty, so the wire only changes when tenancy is used.
	rawDefault, _ := json.Marshal(CreateInstanceRequest{ClientName: "new"})
	oldRaw, _ := json.Marshal(oldCreateInstanceRequest{ClientName: "new"})
	if string(rawDefault) != string(oldRaw) {
		t.Fatalf("default-tenant wire form changed: %s vs %s", rawDefault, oldRaw)
	}
}

// TestThrottledReplyAgainstOldClient: a throttled SubmitReply decoded by a
// pre-tenancy client shows Accepted == 0 — the old client fails loudly on
// the accept-count check instead of silently dropping the bundle.
func TestThrottledReplyAgainstOldClient(t *testing.T) {
	raw, err := json.Marshal(SubmitReply{RetryAfterMillis: 40})
	if err != nil {
		t.Fatal(err)
	}
	var old oldSubmitReply
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatalf("old decode of throttled reply: %v", err)
	}
	if old.Accepted != 0 {
		t.Fatalf("old client would treat throttle as acceptance: %+v", old)
	}
	// Round trip the other way: the throttle survives a new decode.
	var rep SubmitReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.RetryAfterMillis != 40 {
		t.Fatalf("RetryAfterMillis = %d, want 40", rep.RetryAfterMillis)
	}
}

// TestStatsTenantsRowsIgnorableByOldReaders: tenant rows in StatsReply are
// additive — an old reader decoding the new reply keeps every field it
// knows and drops the rows.
func TestStatsTenantsRowsIgnorableByOldReaders(t *testing.T) {
	reply := StatsReply{Queued: 3, Submitted: 9, Tenants: []TenantStats{{Name: "a", InFlight: 2, Submitted: 9}}}
	raw, err := json.Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Queued    int   `json:"queued"`
		Submitted int64 `json:"submitted"`
	}
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	if old.Queued != 3 || old.Submitted != 9 {
		t.Fatalf("old reader lost fields: %+v", old)
	}
	var back StatsReply
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Tenants) != 1 || back.Tenants[0].Name != "a" {
		t.Fatalf("tenant rows lost: %+v", back)
	}
}
