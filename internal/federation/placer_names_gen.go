// Code generated by "go generate ./internal/federation" (gen/main.go); DO NOT EDIT.

package federation

// BuiltinPlacerNames lists the built-in placement policies in sweep order.
// Command-line surfaces (the lass-sim -policy usage string) embed it, and
// the experiment goldens keep only these policies' rows.
var BuiltinPlacerNames = []string{"never", "cloud-only", "nearest-peer", "model-driven", "grant-aware", "cost-bounded", "metro-affine"}
