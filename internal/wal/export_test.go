package wal

import (
	"encoding/json"
	"fmt"
)

// Reencode decodes a record's body with encoding/json and encodes it again
// with the record's own encoder: appendJSON for the per-task kinds, and
// encoding/json for the cold ones.
func Reencode(kind Kind, body []byte) ([]byte, error) {
	var err error
	switch kind {
	case KindAccept:
		var rec AcceptRec
		if err = json.Unmarshal(body, &rec); err == nil {
			return rec.appendJSON(nil), nil
		}
	case KindDispatchBatch:
		var rec DispatchBatchRec
		if err = json.Unmarshal(body, &rec); err == nil {
			return rec.appendJSON(nil), nil
		}
	case KindCompleteBatch:
		var rec CompleteBatchRec
		if err = json.Unmarshal(body, &rec); err == nil {
			return rec.appendJSON(nil), nil
		}
	case KindInstance:
		var rec InstanceRec
		if err = json.Unmarshal(body, &rec); err == nil {
			return json.Marshal(rec)
		}
	case KindDestroy:
		var rec DestroyRec
		if err = json.Unmarshal(body, &rec); err == nil {
			return json.Marshal(rec)
		}
	default:
		return nil, fmt.Errorf("no %v records in a segment", kind)
	}
	return nil, err
}
