package core

// SetPartialTestOverflow installs fn as the PartialEvaluator overflow
// hook for the external tests (nil removes it).
func SetPartialTestOverflow(fn func(fixedFrom int) bool) { partialTestOverflow = fn }
