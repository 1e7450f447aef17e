package api

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAPIDocCoversConstants keeps API.md honest: every wire constant
// this package exports must appear in the doc's "Wire constants"
// table, by name and by value. Adding a constant without documenting
// it fails here; the drift test covers the opposite direction (code
// bypassing the constants).
func TestAPIDocCoversConstants(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(moduleRoot(t), "API.md"))
	if err != nil {
		t.Fatalf("API.md must exist at the repository root: %v", err)
	}
	md := string(doc)

	constants := map[string]string{
		"PathCompress":        PathCompress,
		"PathDecompress":      PathDecompress,
		"PathCodecs":          PathCodecs,
		"PathInspect":         PathInspect,
		"PathSlabs":           PathSlabs,
		"PathSlabPrefix":      PathSlabPrefix,
		"PathContainerPrefix": PathContainerPrefix,
		"PathContainers":      PathContainers,
		"PathLimits":          PathLimits,
		"PathHealthz":         PathHealthz,
		"PathMetrics":         PathMetrics,
		"PathDebugTraces":     PathDebugTraces,
		"PathDebugQOS":        PathDebugQOS,
		"ParamHeaderPrefix":   ParamHeaderPrefix,
		"HeaderCodec":         HeaderCodec,
		"HeaderDims":          HeaderDims,
		"HeaderDtype":         HeaderDtype,
		"HeaderSlabs":         HeaderSlabs,
		"HeaderSlabLengths":   HeaderSlabLengths,
		"HeaderDigest":        HeaderDigest,
		"HeaderStore":         HeaderStore,
		"HeaderCache":         HeaderCache,
		"HeaderBackend":       HeaderBackend,
		"HeaderRequestID":     HeaderRequestID,
		"HeaderContentLength": HeaderContentLength,
		"HeaderAPIKey":        HeaderAPIKey,
		"HeaderPriority":      HeaderPriority,
		"HeaderTenant":        HeaderTenant,
		"QueryDigest":         QueryDigest,
		"QueryLimit":          QueryLimit,
		"QueryTrace":          QueryTrace,
		"MediaTypeSlabExtent": MediaTypeSlabExtent,
		"DefaultTenant":       DefaultTenant,
		"MaxAPIKeyLen":        strconv.Itoa(MaxAPIKeyLen),
		"MaxTenants":          strconv.Itoa(MaxTenants),
		"Interactive":         Interactive.String(),
		"Batch":               Batch.String(),
		"CodeOverloaded":      CodeOverloaded,
		"CodeTenantOverShare": CodeTenantOverShare,
		"CodeDraining":        CodeDraining,
		"CodeNoBackend":       CodeNoBackend,
		"CodeTooLarge":        CodeTooLarge,
		"CodeBadRequest":      CodeBadRequest,
		"CodeBadTenant":       CodeBadTenant,
		"CodeNotFound":        CodeNotFound,
		"CodeNoReplica":       CodeNoReplica,
		"CodeTLSRequired":     CodeTLSRequired,
		"CodeInternal":        CodeInternal,
	}
	for name, value := range constants {
		row := fmt.Sprintf("| `%s` | `%s` |", name, value)
		if !strings.Contains(md, row) {
			t.Errorf("API.md wire-constants table missing row %s", row)
		}
	}
}

// moduleRoot walks up from the working directory to the go.mod root.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
