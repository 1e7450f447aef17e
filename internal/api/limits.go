package api

// MaxTenants bounds a daemon's tenant table: a new tenant that finds
// this many first drops every idle tenant without a configured weight.
const MaxTenants = 4096

// Limits is the GET /v1/limits response on a single daemon: the live
// QoS state a client can read before deciding how hard to push.
type Limits struct {
	// BudgetBytes is the current adaptive admission budget.
	BudgetBytes int64 `json:"budget_bytes"`
	// MaxRequestBytes caps one request's charge.
	MaxRequestBytes int64 `json:"max_request_bytes"`
	// Workers is the current adaptive worker clamp.
	Workers int `json:"workers"`
	// RetryAfterMS is the backoff hint currently attached to sheds.
	RetryAfterMS int64 `json:"retry_after_ms"`
	// Congested reports whether the controller currently sees
	// pressure (budget shrinking or held down).
	Congested bool `json:"congested"`
	// Draining reports a daemon that admits nothing new.
	Draining bool `json:"draining"`
	// InflightBytes is the budget admitted requests currently reserve.
	InflightBytes int64 `json:"inflight_bytes"`
	// Sheds counts admission rejections (429s) since boot.
	Sheds int64 `json:"sheds"`
	// Priorities lists the admission classes in shed order: later
	// entries shed first.
	Priorities []string `json:"priorities"`
	// Tenants holds the per-tenant view, keyed by tenant name: the
	// configured tenants, those in flight, and those with traffic since
	// the table last reached MaxTenants.
	Tenants map[string]TenantLimits `json:"tenants,omitempty"`
}

// TenantLimits is one tenant's slice of the admission state.
type TenantLimits struct {
	// Weight is the tenant's share weight (default 1).
	Weight float64 `json:"weight"`
	// ShareBytes is the tenant's current weighted-fair byte share of
	// the budget, given the set of active tenants.
	ShareBytes int64 `json:"share_bytes"`
	// InflightBytes is the tenant's admitted-and-unreleased charge.
	InflightBytes int64 `json:"inflight_bytes"`
	// Admitted and Rejected count this tenant's admission outcomes
	// since boot.
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
}

// FleetLimits is the router's GET /v1/limits response: the last poll
// answer of every healthy backend plus fleet-wide totals.
type FleetLimits struct {
	// BudgetBytes sums the listed backends' budgets.
	BudgetBytes int64 `json:"budget_bytes"`
	// Backends maps backend address to its last polled Limits. Only
	// backends whose last poll read healthy appear.
	Backends map[string]Limits `json:"backends"`
}
