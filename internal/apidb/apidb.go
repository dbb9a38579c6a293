// Package apidb is the refcounting-API knowledge base used by the checkers.
//
// It encodes the paper's three API categories (§5):
//
//   - General refcounting APIs operate directly on basic counted structures
//     (refcount_t, kref, kobject): refcount_inc/dec, kref_get/put,
//     kobject_get/put.
//   - Specific refcounting APIs wrap general ones for one object type and are
//     used inside one subsystem: of_node_get/put, get_device/put_device,
//     sock_hold/sock_put, ...
//   - Refcounting-embedded APIs exist for non-refcounting tasks (find, parse,
//     open, probe, register, ...) but embed refcounting operations; the
//     find-like members of this family caused hundreds of bugs.
//
// It also records the deviation flags behind anti-patterns P1/P2
// (increments-on-error, may-return-NULL), the smartloop registry behind P3,
// the get→put pairing used everywhere, and the inter-paired callback table
// behind P6 (probe/remove, open/release, ...). Appendix A's error-prone API
// inventory (Table 6) is reproduced by Table6 in table6.go.
//
// Beyond the static seed, Discover implements the paper's "lexer parsing"
// stage (§6.1): it scans parsed sources for refcounted structures (those
// containing refcount_t/kref/kobject/atomic_t fields), classifies functions
// that operate on them as refcounting APIs, and registers loop macros whose
// bodies call embedded refcounting APIs as smartloops.
package apidb

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"
)

// Op says which way an API moves a refcounter.
type Op int

// Operations.
const (
	OpNone Op = iota
	OpInc
	OpDec
)

// String returns "inc"/"dec"/"none".
func (o Op) String() string {
	switch o {
	case OpInc:
		return "inc"
	case OpDec:
		return "dec"
	}
	return "none"
}

// Class is the paper's API category.
type Class int

// Categories (§5).
const (
	General Class = iota
	Specific
	Embedded
)

// String names the class as in the paper.
func (c Class) String() string {
	switch c {
	case General:
		return "general"
	case Specific:
		return "specific"
	default:
		return "refcounting-embedded"
	}
}

// API describes one refcounting (or refcounting-embedded) function.
type API struct {
	Name  string
	Op    Op
	Class Class

	// ObjArg is the index of the argument holding the counted object;
	// -1 when the object is carried by the return value instead.
	ObjArg int

	// ReturnsRef is set when the function returns a (new) counted
	// reference the caller must eventually put (find-like APIs).
	ReturnsRef bool

	// Pair names the decrement API that balances this increment (or the
	// increment that balances this decrement).
	Pair string

	// IncOnError (deviation, P1): increments even when returning an error
	// code, so every path — including error paths — needs the put.
	IncOnError bool

	// MayReturnNull (deviation, P2): the returned pointer may be NULL and
	// must be checked before use.
	MayReturnNull bool

	// HasDecArg/DecArgObj (hidden-put, P4-UAF side): the API *decrements*
	// the refcount of the DecArgObj-th argument in addition to its main job
	// (of_find_matching_node puts its `from` cursor argument).
	HasDecArg bool
	DecArgObj int

	// MayFree is set for decrement APIs that can free the object (and its
	// attached resources) when the count reaches zero — i.e. every proper
	// put. Used by P7 (direct-free) and P8 (UAD).
	MayFree bool

	// Struct is the counted structure's name, when known ("device_node").
	Struct string

	// Discovered is set for APIs found by Discover rather than seeded.
	Discovered bool
}

// SmartLoop describes a macro-defined iteration helper that hides
// refcounting (§5.2.1).
type SmartLoop struct {
	Name string
	// IterArg is the macro-argument index of the loop variable.
	IterArg int
	// PutAPI must be called on the loop variable when leaving the loop
	// early (break/return/goto out of the loop body).
	PutAPI string
	// EmbeddedAPI is the find-like API invoked by the loop header.
	EmbeddedAPI string
	// Discovered is set for loops found by Discover.
	Discovered bool
}

// CallbackPair is one inter-paired callback convention (§5.3.2): a get in
// the acquire callback must be balanced by a put in the release callback of
// the same driver-ops structure.
type CallbackPair struct {
	Struct  string // "platform_driver"
	Acquire string // field name: "probe"
	Release string // field name: "remove"
}

// DB is the queryable knowledge base.
type DB struct {
	apis      map[string]*API
	loops     map[string]*SmartLoop
	callbacks []CallbackPair
	// refStructs: struct name → true for structures that embed a counter.
	refStructs map[string]bool
}

// New returns a DB seeded with the kernel API surface from the paper
// (Appendix A plus the general/specific APIs named in §5).
func New() *DB {
	db := &DB{
		apis:       map[string]*API{},
		loops:      map[string]*SmartLoop{},
		refStructs: map[string]bool{},
	}
	db.seed()
	return db
}

// Lookup returns the API entry for name, or nil.
func (db *DB) Lookup(name string) *API { return db.apis[name] }

// Loop returns the smartloop entry for the macro name, or nil.
func (db *DB) Loop(name string) *SmartLoop { return db.loops[name] }

// Callbacks returns the inter-paired callback conventions.
func (db *DB) Callbacks() []CallbackPair { return db.callbacks }

// IsRefStruct reports whether the named struct is refcounted (directly or by
// embedding a counted structure).
func (db *DB) IsRefStruct(name string) bool { return db.refStructs[name] }

// RefStructs returns the refcounted struct names, sorted.
func (db *DB) RefStructs() []string {
	out := make([]string, 0, len(db.refStructs))
	for s := range db.refStructs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// AddAPI registers (or overrides) an API entry.
func (db *DB) AddAPI(a *API) { db.apis[a.Name] = a }

// AddLoop registers a smartloop.
func (db *DB) AddLoop(l *SmartLoop) { db.loops[l.Name] = l }

// DeleteLoop removes a smartloop; the ablation benchmarks use it to measure
// how much the smartloop registry (backed by macro provenance) contributes
// to recall.
func (db *DB) DeleteLoop(name string) { delete(db.loops, name) }

// AddRefStruct marks a struct as refcounted.
func (db *DB) AddRefStruct(name string) { db.refStructs[name] = true }

// APIs returns all entries sorted by name (stable iteration for reports).
func (db *DB) APIs() []*API {
	out := make([]*API, 0, len(db.apis))
	for _, a := range db.apis {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// APIFingerprint hashes the whole API table — every entry Lookup can return,
// every field — in name order. Anything derived from Lookup results (event
// extraction, and so the facts layer) can key a cache on it: two DBs with
// the same fingerprint answer every Lookup identically.
func (db *DB) APIFingerprint() string {
	h := sha256.New()
	var buf []byte
	str := func(s string) {
		buf = strconv.AppendInt(buf, int64(len(s)), 10)
		buf = append(buf, ':')
		buf = append(buf, s...)
	}
	num := func(n int) {
		buf = strconv.AppendInt(buf, int64(n), 10)
		buf = append(buf, ',')
	}
	flag := func(b bool) {
		if b {
			buf = append(buf, '1')
		} else {
			buf = append(buf, '0')
		}
	}
	for _, a := range db.APIs() {
		buf = buf[:0]
		str(a.Name)
		num(int(a.Op))
		num(int(a.Class))
		num(a.ObjArg)
		flag(a.ReturnsRef)
		str(a.Pair)
		flag(a.IncOnError)
		flag(a.MayReturnNull)
		flag(a.HasDecArg)
		num(a.DecArgObj)
		flag(a.MayFree)
		str(a.Struct)
		flag(a.Discovered)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Loops returns all smartloops sorted by name.
func (db *DB) Loops() []*SmartLoop {
	out := make([]*SmartLoop, 0, len(db.loops))
	for _, l := range db.loops {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// incKeywords / decKeywords are the name keywords from the paper's mining
// methodology (§3.1): "get", "take", "hold", "grab" for increment and "put",
// "drop", "unhold", "release" for decrement.
var incKeywords = []string{"get", "take", "hold", "grab", "ref", "retain"}
var decKeywords = []string{"put", "drop", "unhold", "release", "unref", "free"}

// KeywordOp guesses the operation from an API name using the paper's keyword
// lists. This is the *first-level* filter only; Lookup/Discover confirm.
func KeywordOp(name string) Op {
	lower := strings.ToLower(name)
	parts := strings.Split(lower, "_")
	for _, p := range parts {
		for _, k := range decKeywords {
			if p == k {
				return OpDec
			}
		}
	}
	for _, p := range parts {
		for _, k := range incKeywords {
			if p == k {
				return OpInc
			}
		}
	}
	return OpNone
}

func (db *DB) seed() {
	add := func(a API) { db.apis[a.Name] = &a }

	// --- general refcounting APIs (§5, "General Refcounting APIs") ---
	gens := []struct{ inc, dec, strct string }{
		{"refcount_inc", "refcount_dec", "refcount_struct"},
		{"kref_get", "kref_put", "kref"},
		{"kobject_get", "kobject_put", "kobject"},
		{"atomic_inc", "atomic_dec", ""},
	}
	for _, g := range gens {
		add(API{Name: g.inc, Op: OpInc, Class: General, ObjArg: 0, Pair: g.dec, Struct: g.strct})
		add(API{Name: g.dec, Op: OpDec, Class: General, ObjArg: 0, Pair: g.inc, Struct: g.strct, MayFree: g.inc != "atomic_inc"})
	}

	// --- specific refcounting APIs ---
	specs := []struct{ inc, dec, strct string }{
		{"of_node_get", "of_node_put", "device_node"},
		{"get_device", "put_device", "device"},
		{"usb_serial_get", "usb_serial_put", "usb_serial"},
		{"sock_hold", "sock_put", "sock"},
		{"dev_hold", "dev_put", "net_device"},
		{"fwnode_handle_get", "fwnode_handle_put", "fwnode_handle"},
		{"pci_dev_get", "pci_dev_put", "pci_dev"},
		{"get_task_struct", "put_task_struct", "task_struct"},
		{"mdesc_hold", "mdesc_release", "mdesc_handle"},
		{"nvmem_device_get_ref", "nvmem_device_put", "nvmem_device"},
		{"lpfc_bsg_event_ref", "lpfc_bsg_event_unref", "lpfc_bsg_event"},
	}
	for _, s := range specs {
		add(API{Name: s.inc, Op: OpInc, Class: Specific, ObjArg: 0, Pair: s.dec, Struct: s.strct})
		add(API{Name: s.dec, Op: OpDec, Class: Specific, ObjArg: 0, Pair: s.inc, Struct: s.strct, MayFree: true})
	}

	// --- refcounting-embedded APIs: deviations (Table 6, "ID" rows) ---
	// Return-Error: increments no matter what, returns an error code.
	add(API{Name: "pm_runtime_get_sync", Op: OpInc, Class: Embedded, ObjArg: 0,
		Pair: "pm_runtime_put_noidle", IncOnError: true})
	add(API{Name: "pm_runtime_put_noidle", Op: OpDec, Class: Embedded, ObjArg: 0,
		Pair: "pm_runtime_get_sync", MayFree: false})
	add(API{Name: "pm_runtime_put", Op: OpDec, Class: Embedded, ObjArg: 0,
		Pair: "pm_runtime_get_sync", MayFree: false})
	add(API{Name: "kobject_init_and_add", Op: OpInc, Class: Embedded, ObjArg: 0,
		Pair: "kobject_put", IncOnError: true})

	// Return-NULL: returns a counted reference that may be NULL.
	add(API{Name: "mdesc_grab", Op: OpInc, Class: Embedded, ObjArg: -1,
		ReturnsRef: true, MayReturnNull: true, Pair: "mdesc_release", Struct: "mdesc_handle"})
	add(API{Name: "amdgpu_device_ip_init", Op: OpInc, Class: Embedded, ObjArg: -1,
		ReturnsRef: true, MayReturnNull: true, Pair: "amdgpu_device_ip_fini"})
	add(API{Name: "amdgpu_device_ip_fini", Op: OpDec, Class: Embedded, ObjArg: 0,
		Pair: "amdgpu_device_ip_init", MayFree: true})

	// --- refcounting-embedded APIs: hidden get/put (Table 6, "H" rows) ---
	// of_find_* family: return a counted device_node; of_find_* that take a
	// `from` cursor also *put* the cursor (hidden dec of arg 0).
	finders := []struct {
		name   string
		decArg int
	}{
		{"of_find_compatible_node", 0},
		{"of_find_matching_node", 0},
		{"of_find_matching_node_and_match", 0},
		{"of_find_node_by_name", 0},
		{"of_find_node_by_type", 0},
		{"of_find_node_by_path", -1},
		{"of_find_node_by_phandle", -1},
		{"of_get_next_child", 1},
		{"of_get_next_available_child", 1},
	}
	for _, f := range finders {
		add(API{Name: f.name, Op: OpInc, Class: Embedded, ObjArg: -1,
			ReturnsRef: true, MayReturnNull: true, Pair: "of_node_put",
			HasDecArg: f.decArg >= 0, DecArgObj: f.decArg, Struct: "device_node"})
	}
	moreHidden := []struct {
		name, pair, strct string
	}{
		{"of_parse_phandle", "of_node_put", "device_node"},
		{"of_get_parent", "of_node_put", "device_node"},
		{"of_get_child_by_name", "of_node_put", "device_node"},
		{"of_get_node", "of_node_put", "device_node"},
		{"of_graph_get_port_by_id", "of_node_put", "device_node"},
		{"of_graph_get_port_parent", "of_node_put", "device_node"},
		{"of_graph_get_remote_node", "of_node_put", "device_node"},
		{"bus_find_device", "put_device", "device"},
		{"class_find_device", "put_device", "device"},
		{"device_find_child", "put_device", "device"},
		{"driver_find_device", "put_device", "device"},
		{"ip_dev_find", "dev_put", "net_device"},
		{"dev_get_by_name", "dev_put", "net_device"},
		{"dev_get_by_index", "dev_put", "net_device"},
		{"tipc_node_find", "tipc_node_put", "tipc_node"},
		{"sockfd_lookup", "sockfd_put", "socket"},
		{"fc_rport_lookup", "fc_rport_put", "fc_rport"},
		{"rxrpc_lookup_peer", "rxrpc_put_peer", "rxrpc_peer"},
		{"lookup_bdev", "bdput", "block_device"},
		{"tcp_ulp_find_autoload", "tcp_ulp_put", "tcp_ulp_ops"},
		{"ipv4_neigh_lookup", "neigh_release", "neighbour"},
		{"mpol_shared_policy_lookup", "mpol_cond_put", "mempolicy"},
		{"setup_find_cpu_node", "of_node_put", "device_node"},
		{"perf_cpu_map__new", "perf_cpu_map__put", "perf_cpu_map"},
		{"afs_alloc_read", "afs_put_read", "afs_read"},
		{"gfs2_glock_nq_init", "gfs2_glock_dq_uninit", "gfs2_holder"},
	}
	for _, h := range moreHidden {
		add(API{Name: h.name, Op: OpInc, Class: Embedded, ObjArg: -1,
			ReturnsRef: true, MayReturnNull: true, Pair: h.pair,
			Struct: h.strct})
	}
	// Paired puts for the embedded family that don't exist yet.
	for _, h := range moreHidden {
		if db.apis[h.pair] == nil {
			add(API{Name: h.pair, Op: OpDec, Class: Specific, ObjArg: 0,
				Pair: h.name, MayFree: true, Struct: h.strct})
		}
	}
	// Hidden-inc APIs used as examples in §5.2.2: device_initialize,
	// usb_anchor_urb, tomoyo_mount_acl hold references on their argument.
	for _, n := range []string{"device_initialize", "usb_anchor_urb", "tomoyo_mount_acl"} {
		add(API{Name: n, Op: OpInc, Class: Embedded, ObjArg: 0, Pair: ""})
	}
	// nvmet_fc_tgt_q_get/put pin the queue passed as their argument.
	add(API{Name: "nvmet_fc_tgt_q_get", Op: OpInc, Class: Specific, ObjArg: 0,
		Pair: "nvmet_fc_tgt_q_put", Struct: "nvmet_fc_tgt_queue"})
	add(API{Name: "nvmet_fc_tgt_q_put", Op: OpDec, Class: Specific, ObjArg: 0,
		Pair: "nvmet_fc_tgt_q_get", MayFree: true, Struct: "nvmet_fc_tgt_queue"})

	// --- smartloops (§5.2.1, §7) ---
	loops := []SmartLoop{
		{Name: "for_each_matching_node", IterArg: 0, PutAPI: "of_node_put", EmbeddedAPI: "of_find_matching_node"},
		{Name: "for_each_child_of_node", IterArg: 1, PutAPI: "of_node_put", EmbeddedAPI: "of_get_next_child"},
		{Name: "for_each_available_child_of_node", IterArg: 1, PutAPI: "of_node_put", EmbeddedAPI: "of_get_next_available_child"},
		{Name: "for_each_node_by_name", IterArg: 0, PutAPI: "of_node_put", EmbeddedAPI: "of_find_node_by_name"},
		{Name: "for_each_node_by_type", IterArg: 0, PutAPI: "of_node_put", EmbeddedAPI: "of_find_node_by_type"},
		{Name: "for_each_compatible_node", IterArg: 0, PutAPI: "of_node_put", EmbeddedAPI: "of_find_compatible_node"},
		{Name: "for_each_endpoint_of_node", IterArg: 1, PutAPI: "of_node_put", EmbeddedAPI: "of_graph_get_next_endpoint"},
		{Name: "device_for_each_child_node", IterArg: 1, PutAPI: "fwnode_handle_put", EmbeddedAPI: "device_get_next_child_node"},
		{Name: "fwnode_for_each_child_node", IterArg: 1, PutAPI: "fwnode_handle_put", EmbeddedAPI: "fwnode_get_next_child_node"},
		{Name: "fwnode_for_each_parent_node", IterArg: 1, PutAPI: "fwnode_handle_put", EmbeddedAPI: "fwnode_get_parent"},
		{Name: "for_each_cpu_node", IterArg: 0, PutAPI: "of_node_put", EmbeddedAPI: "of_get_next_cpu_node"},
	}
	for i := range loops {
		l := loops[i]
		db.loops[l.Name] = &l
		if db.apis[l.EmbeddedAPI] == nil {
			add(API{Name: l.EmbeddedAPI, Op: OpInc, Class: Embedded, ObjArg: -1,
				ReturnsRef: true, MayReturnNull: true, Pair: l.PutAPI})
		}
	}

	// --- inter-paired callbacks (§5.3.2) ---
	db.callbacks = []CallbackPair{
		{Struct: "platform_driver", Acquire: "probe", Release: "remove"},
		{Struct: "usb_driver", Acquire: "probe", Release: "disconnect"},
		{Struct: "proto_ops", Acquire: "connect", Release: "shutdown"},
		{Struct: "file_operations", Acquire: "open", Release: "release"},
		{Struct: "i2c_driver", Acquire: "probe", Release: "remove"},
		{Struct: "pci_driver", Acquire: "probe", Release: "remove"},
	}

	// --- refcounted structures ---
	for _, s := range []string{
		"kref", "kobject", "device_node", "device", "sock", "net_device",
		"usb_serial", "fwnode_handle", "pci_dev", "task_struct",
		"mdesc_handle", "nvmem_device", "lpfc_bsg_event",
	} {
		db.refStructs[s] = true
	}
}
