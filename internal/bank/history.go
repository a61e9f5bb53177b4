package bank

import "mineassess/internal/item"

// Revision history: the paper's cycle has instructors fixing problematic
// questions after each analysis ("Teachers can see the analysis of test
// result and fix problematic questions"). The store keeps the superseded
// versions so a fix can be audited or rolled back.

// Revision is one superseded version of a problem. Version numbers are
// strictly increasing along a problem's history, and the current version
// (Storage.Version) is one past the newest revision: an update or a
// rollback each mint a new number, so a number is never reused.
type Revision struct {
	// Version counts from 1 (the original).
	Version int
	Problem *item.Problem
}
