package pagestore

import "colorfulxml/internal/obs"

// Pagestore instruments. A page copy is a page image copied (Page.copyImage)
// by an overwrite that finds MaxPatches records in the page's header already,
// or by an append that finds another snapshot already appended to the shared
// image: the copy-on-write cost a commit pays per page. Recorded on the
// writer path only; reads count nothing.
var obsPagesCopied = obs.NewCounter("pagestore_pages_copied_total")
