package corpus

// BugListing returns the canonical buggy listing for one anti-pattern,
// suitable for appending to an existing generated source file, plus the name
// of the function the checkers are expected to flag (for P6 that is the
// register-side function, not fn itself). It exists so test harnesses
// (internal/difftest's bug-injection transforms) can seed a known bug without
// re-deriving template shapes; the returned text is exactly what Generate
// would emit for the same pattern with default APIs.
func BugListing(p PatternID, fn string) (text, buggyFn string) {
	switch p {
	case "P1":
		return genP1(fn), fn
	case "P2":
		return genP2(fn, "mdesc_grab"), fn
	case "P3":
		return genP3(fn, "for_each_child_of_node"), fn
	case "P4":
		return genP4Leak(fn, "of_find_compatible_node", 0), fn
	case "P5":
		return genP5(fn, "of_find_compatible_node"), fn
	case "P6":
		return genP6(fn, false), fn + "_register"
	case "P7":
		return genP7(fn, fn+"_obj"), fn
	case "P8":
		return genP8(fn, "sock_put", false), fn
	case "P9":
		return genP9(fn, fn+"_slot", 0), fn
	}
	return "", ""
}
