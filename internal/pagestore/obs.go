package pagestore

import "colorfulxml/internal/obs"

// Pagestore instruments. A page copy is a page image copied on its first
// write in a generation (Store.writable): the copy-on-write cost a commit
// pays per page it touches. Recorded on the writer path only; reads count
// nothing.
var obsPagesCopied = obs.NewCounter("pagestore_pages_copied_total")
