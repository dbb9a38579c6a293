package clex

// Interning: the lexer produces token spellings by slicing the source buffer
// (zero-copy), and canonicalizes the spellings that dominate kernel code —
// keywords, common identifiers, and the refcounting API surface — through a
// fixed read-only table. The table is built once at init and never mutated
// afterwards, so lookups are lock-free and safe from any number of
// concurrent lexers (the parallel front end lexes files on every worker).
//
// Interning serves two purposes on the hot path:
//   - repeated spellings across millions of tokens collapse to one backing
//     string, so maps keyed by identifier text hash pointer-equal keys;
//   - keyword classification happens in the same lookup that canonicalizes
//     the spelling, instead of a second map probe per identifier.

// internEntry is one canonical spelling with its token kind.
type internEntry struct {
	text string
	kind Kind
}

var internTab map[string]internEntry

// commonIdents are non-keyword spellings frequent enough in kernel C to be
// worth canonicalizing: ubiquitous locals, the refcounting API families the
// checkers look for, and preprocessor-significant names.
var commonIdents = []string{
	// preprocessor / language
	"NULL", "defined", "__VA_ARGS__", "true", "false",
	"__KERNEL__", "__init", "__exit", "__user", "__iomem", "__must_check",
	"EXPORT_SYMBOL", "EXPORT_SYMBOL_GPL", "MODULE_LICENSE",
	// ubiquitous identifiers
	"ret", "err", "error", "rc", "i", "j", "n", "len", "size", "count",
	"dev", "np", "node", "child", "parent", "name", "data", "priv", "flags",
	"buf", "p", "ptr", "obj", "res", "out", "fail", "done", "retval",
	"struct", "dev_err", "dev_warn", "printk", "pr_err", "pr_warn",
	// refcounted structures (§6.1)
	"device_node", "kobject", "kref", "refcount_t", "atomic_t", "device",
	"platform_device", "net_device", "sk_buff", "usage", "refcnt", "refcount",
	// refcounting APIs (Appendix A inventory, heavily repeated in every TU)
	"of_node_get", "of_node_put", "of_find_node_by_name",
	"of_find_compatible_node", "of_find_matching_node", "of_get_parent",
	"of_get_next_child", "of_parse_phandle", "kref_get", "kref_put",
	"kref_init", "kobject_get", "kobject_put", "get_device", "put_device",
	"refcount_inc", "refcount_dec", "refcount_dec_and_test",
	"atomic_inc", "atomic_dec", "atomic_dec_and_test",
	"kfree", "kzalloc", "kmalloc", "kvfree",
	// smartloops
	"for_each_child_of_node", "for_each_available_child_of_node",
	"for_each_matching_node", "for_each_compatible_node",
	"for_each_node_by_name", "for_each_node_by_type",
}

func init() {
	internTab = make(map[string]internEntry, len(keywords)+len(commonIdents))
	for kw := range keywords {
		internTab[kw] = internEntry{text: kw, kind: Keyword}
	}
	for _, id := range commonIdents {
		if _, clash := internTab[id]; !clash {
			internTab[id] = internEntry{text: id, kind: Ident}
		}
	}
}
