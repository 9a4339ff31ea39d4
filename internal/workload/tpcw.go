package workload

import (
	"fmt"

	"colorfulxml/internal/core"
	"colorfulxml/internal/datagen"
)

// TPCWQueries returns the sixteen Table 2 TPC-W queries.
func TPCWQueries() []*Query {
	return []*Query{
		tq1(), tq2(), tq3(), tq4(), tq5(), tq6(), tq7(), tq8(),
		tq9(), tq10(), tq11(), tq12(), tq13(), tq14(), tq15(), tq16(),
	}
}

// TPCWUpdates returns the four Table 2 TPC-W updates.
func TPCWUpdates() []*UpdateSpec {
	return []*UpdateSpec{tu1(), tu2(), tu3(), tu4()}
}

// entityByField builds the single-hierarchy "entity by field" query shared
// by TQ1/TQ2/TQ4/TQ5/TQ6/TQ8: entities of tag whose child field compares
// (op is "=", ">=" or "contains") with value. mctColor is the hierarchy the
// entity folds into.
func entityByField(id, desc string, mctColor core.Color, tag, field, op, value string) *Query {
	cond := fmt.Sprintf(`%s %s "%s"`, field, op, value)
	mctCond := fmt.Sprintf(`{%s}child::%s %s "%s"`, mctColor, field, op, value)
	if op == "contains" {
		cond = fmt.Sprintf(`contains(%s, "%s")`, field, value)
		mctCond = fmt.Sprintf(`contains({%s}child::%s, "%s")`, mctColor, field, value)
	}
	return &Query{
		ID: id, Desc: desc, Colors: 0, Trees: 1,
		Text: map[Variant]string{
			MCT: fmt.Sprintf(`for $x in document("tpcw")/{%s}descendant::%s[%s]
return createColor(black, <r>{ $x/{%s}attribute::id }</r>)`, mctColor, tag, mctCond, mctColor),
			Shallow: fmt.Sprintf(`for $x in document("tpcw")//%s[%s] return <r>{ $x/@id }</r>`, tag, cond),
			Deep:    fmt.Sprintf(`for $x in document("tpcw")//%s[%s] return <r>{ $x/@id }</r>`, tag, cond),
		},
	}
}

func tq1() *Query {
	return entityByField("TQ1", "customer with a given user name",
		datagen.ColCustomer, "customer", "uname", "=", "user000042")
}

func tq2() *Query {
	return entityByField("TQ2", "orders with status SHIPPED",
		datagen.ColCustomer, "order", "status", "=", "SHIPPED")
}

func tq4() *Query {
	return entityByField("TQ4", "order lines with quantity >= 8",
		datagen.ColCustomer, "orderline", "qty", ">=", "8")
}

func tq5() *Query {
	return entityByField("TQ5", "customers with email matching a fragment",
		datagen.ColCustomer, "customer", "email", "contains", "user00004")
}

func tq6() *Query {
	return entityByField("TQ6", "order lines with quantity >= 2 (bulk scan)",
		datagen.ColCustomer, "orderline", "qty", ">=", "2")
}

func tq8() *Query {
	return entityByField("TQ8", "customer by email fragment (point-ish scan)",
		datagen.ColCustomer, "customer", "email", "contains", "user000042@")
}

// TQ3: orders of one customer shipped to a given country — two hierarchies,
// one color crossing in MCT; two value joins in shallow; pure structure in
// deep (the address is replicated inside the order), which is why deep WINS
// this query in the paper (0.16 vs 0.82).
func tq3() *Query {
	return &Query{
		ID: "TQ3", Desc: "orders of one customer shipped to one country",
		Colors: 1, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $o in document("tpcw")/{customer}descendant::customer[{customer}child::uname = "user000007"]/{customer}child::order,
    $a in document("tpcw")/{shipping}descendant::address[{shipping}child::country = "Japan"]/{shipping}child::order
where $o = $a
return createColor(black, <r>{ $o/{customer}attribute::id }</r>)`,
			Shallow: `for $c in document("tpcw")//customer[uname = "user000007"],
    $o in document("tpcw")//order,
    $a in document("tpcw")//address[country = "Japan"]
where $o/@customerIdRef = $c/@id and $o/@shippingIdRef = $a/@id
return <r>{ $o/@id }</r>`,
			Deep: `for $o in document("tpcw")//customer[uname = "user000007"]/order[shippingAddress//country = "Japan"]
return <r>{ $o/@id }</r>`,
		},
	}
}

// TQ7: expensive items — trivial for MCT and shallow, catastrophic for deep,
// whose item copies (one per order line) must all be scanned: one row per
// copy (paper: 112.25s with dedup, 2.79s without, vs 0.02).
func tq7() *Query {
	return &Query{
		ID: "TQ7", Desc: "items with cost > 9000",
		Colors: 0, Trees: 1,
		Text: map[Variant]string{
			MCT: `for $i in document("tpcw")/{author}descendant::item[{author}child::cost > "9000"]
return createColor(black, <r>{ $i/{author}attribute::id }</r>)`,
			Shallow: `for $i in document("tpcw")//item[cost > "9000"] return <r>{ $i/@id }</r>`,
			Deep:    `for $i in document("tpcw")//item[cost > "9000"] return <r>{ $i/@ref }</r>`,
		},
	}
}

// TQ9: order lines (discount 3) of SHIPPED orders — one hierarchy for MCT
// and deep, a large ID/IDREF value join for shallow (paper: 30.16 vs
// 0.55/0.76).
func tq9() *Query {
	return linesOfOrders("TQ9", "order lines (discount 3) of SHIPPED orders", "SHIPPED", "3")
}

// TQ11 is TQ9 with much smaller join inputs (paper: 33 x 25912): the shallow
// value join is cheaper but still dominates.
func tq11() *Query {
	return linesOfOrders("TQ11", "order lines (discount 9) of DENIED orders", "DENIED", "9")
}

func linesOfOrders(id, desc, status, discount string) *Query {
	return &Query{
		ID: id, Desc: desc, Colors: 0, Trees: 2,
		Text: map[Variant]string{
			MCT: fmt.Sprintf(`for $l in document("tpcw")/{customer}descendant::order[{customer}child::status = "%s"]/{customer}child::orderline[{customer}child::olDiscount = "%s"]
return createColor(black, <r>{ $l/{customer}attribute::id }</r>)`, status, discount),
			Shallow: fmt.Sprintf(`for $o in document("tpcw")//order[status = "%s"],
    $l in document("tpcw")//orderline[olDiscount = "%s"]
where $l/@orderIdRef = $o/@id
return <r>{ $l/@id }</r>`, status, discount),
			Deep: fmt.Sprintf(`for $l in document("tpcw")//order[status = "%s"]/orderline[olDiscount = "%s"]
return <r>{ $l/@id }</r>`, status, discount),
		},
	}
}

// TQ10: order lines of orders by customers with a given discount placed in
// May 2003 — the query where DEEP wins (everything nested under customer),
// MCT pays a color crossing per candidate order, and shallow pays two value
// joins (paper: 6.61 / 8.96 / 0.71). The MCT text returns the order lines'
// id attributes as they are: an element constructed per order would carry
// several attributes of one name.
func tq10() *Query {
	return &Query{
		ID: "TQ10", Desc: "order lines of discount-7 customers' orders placed in May 2003",
		Colors: 1, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $o in document("tpcw")/{customer}descendant::customer[{customer}child::discount = "7"]/{customer}child::order,
    $d in document("tpcw")/{date}descendant::year[{date}child::value = "2003"]/{date}child::month[{date}child::value = "5"]/{date}descendant::order
where $o = $d
return $o/{customer}child::orderline/{customer}attribute::id`,
			Shallow: `for $c in document("tpcw")//customer[discount = "7"],
    $o in document("tpcw")//order,
    $d in document("tpcw")//year[value = "2003"]/month[value = "5"]/day,
    $l in document("tpcw")//orderline
where $o/@customerIdRef = $c/@id and $o/@dateIdRef = $d/@id and $l/@orderIdRef = $o/@id
return <r>{ $l/@id }</r>`,
			Deep: `for $l in document("tpcw")//customer[discount = "7"]/order[orderDate/year = "2003" and orderDate/month = "5"]/orderline
return <r>{ $l/@id }</r>`,
		},
	}
}

// TQ12: author lookup by name — deep must scan replicated author copies, one
// row per copy (paper: 0.54 deep vs 0.01; TQ12D shows the copies).
func tq12() *Query {
	return &Query{
		ID: "TQ12", Desc: "author by exact name",
		Colors: 0, Trees: 1,
		Text: map[Variant]string{
			MCT: `for $a in document("tpcw")/{author}descendant::author[{author}child::name = "A"]
return createColor(black, <r>{ $a/{author}attribute::id }</r>)`,
			Shallow: `for $a in document("tpcw")//author[name = "A"] return <r>{ $a/@id }</r>`,
			Deep:    `for $a in document("tpcw")//author[name = "A"] return <r>{ $a/@ref }</r>`,
		},
	}
}

// TQ13: order lines of HISTORY items — folded into the author hierarchy for
// MCT (no crossing), a value join for shallow (paper: 0.11 / 2.36 / 0.23).
func tq13() *Query {
	return &Query{
		ID: "TQ13", Desc: "order lines of items with subject HISTORY",
		Colors: 0, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $l in document("tpcw")/{author}descendant::item[{author}child::subject = "HISTORY"]/{author}child::orderline
return createColor(black, <r>{ $l/{author}attribute::id }</r>)`,
			Shallow: `for $i in document("tpcw")//item[subject = "HISTORY"],
    $l in document("tpcw")//orderline
where $l/@itemIdRef = $i/@id
return <r>{ $l/@id }</r>`,
			Deep: `for $l in document("tpcw")//orderline[item/subject = "HISTORY"]
return <r>{ $l/@id }</r>`,
		},
	}
}

// TQ14: order lines of items by one author — two structural hops for MCT,
// two value joins for shallow (paper: 0.09 / 2.29 / 0.25).
func tq14() *Query {
	return &Query{
		ID: "TQ14", Desc: "order lines of items written by one author",
		Colors: 0, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $l in document("tpcw")/{author}descendant::author[{author}child::name = "A"]/{author}child::item/{author}child::orderline
return createColor(black, <r>{ $l/{author}attribute::id }</r>)`,
			Shallow: `for $a in document("tpcw")//author[name = "A"],
    $i in document("tpcw")//item,
    $l in document("tpcw")//orderline
where $i/@authorIdRef = $a/@id and $l/@itemIdRef = $i/@id
return <r>{ $l/@id }</r>`,
			Deep: `for $l in document("tpcw")//orderline[item/author/name = "A"]
return <r>{ $l/@id }</r>`,
		},
	}
}

// TQ15: the inequality value join — orders whose total exceeds the total of
// some order shipped to Norway. Nested loops everywhere (quadratic, as the
// paper notes); shallow additionally pays a value join to build the inner
// side (paper: 0.72 / 38.11 / 1.34).
func tq15() *Query {
	return &Query{
		ID: "TQ15", Desc: "orders out-pricing some order shipped to Norway",
		Colors: 0, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $o in document("tpcw")/{customer}descendant::order,
    $n in document("tpcw")/{shipping}descendant::address[{shipping}child::country = "Norway"]/{shipping}child::order
where $o/{customer}child::total > $n/{shipping}child::total
return createColor(black, <r>{ $o/{customer}attribute::id }</r>)`,
			Shallow: `for $o in document("tpcw")//order,
    $a in document("tpcw")//address[country = "Norway"],
    $n in document("tpcw")//order
where $n/@shippingIdRef = $a/@id and $o/total > $n/total
return <r>{ $o/@id }</r>`,
			Deep: `for $o in document("tpcw")//order,
    $n in document("tpcw")//order[shippingAddress//country = "Norway"]
where $o/total > $n/total
return <r>{ $o/@id }</r>`,
		},
	}
}

// TQ16: distinct items ordered by customers billed in Japan — the query
// where MCT beats BOTH: shallow needs three value joins, deep pays
// replication, one row per item copy (paper: 0.40 / 20.09 / 34.61).
func tq16() *Query {
	return &Query{
		ID: "TQ16", Desc: "distinct items bought by customers billed in Japan",
		Colors: 1, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $i in document("tpcw")/{billing}descendant::address[{billing}child::country = "Japan"]/{billing}descendant::orderline/{author}parent::item
return createColor(black, <r>{ $i/{author}attribute::id }</r>)`,
			Shallow: `for $a in document("tpcw")//address[country = "Japan"],
    $o in document("tpcw")//order,
    $l in document("tpcw")//orderline,
    $i in document("tpcw")//item
where $o/@billingIdRef = $a/@id and $l/@orderIdRef = $o/@id and $i/@id = $l/@itemIdRef
return <r>{ $i/@id }</r>`,
			Deep: `for $i in document("tpcw")//customer[billingAddress//country = "Japan"]//item
return <r>{ $i/@ref }</r>`,
		},
	}
}

// --- updates ---------------------------------------------------------------

// TU1: reprice an item by title. One element for MCT/shallow; every
// replicated copy for deep (paper TU1: 1 node vs TU1D: 335).
func tu1() *UpdateSpec {
	return &UpdateSpec{
		ID: "TU1", Desc: "set the cost of an item (by title)",
		Colors: 0, Trees: 1,
		Text: map[Variant]string{
			MCT: `for $i in document("tpcw")/{author}descendant::item[{author}child::title = "T"]
update $i { replace $i/{author}child::cost with "9999" }`,
			Shallow: `for $i in document("tpcw")//item[title = "T"]
update $i { replace $i/cost with "9999" }`,
			Deep: `for $i in document("tpcw")//item[title = "T"]
update $i { replace $i/cost with "9999" }`,
		},
	}
}

// TU2: change the zip of one address. Deep touches one copy per use (paper
// TU2: 1 vs TU2D: 5).
func tu2() *UpdateSpec {
	return &UpdateSpec{
		ID: "TU2", Desc: "set the zip of an address (by street)",
		Colors: 0, Trees: 1,
		Text: map[Variant]string{
			MCT: `for $a in document("tpcw")/{shipping}descendant::address[{shipping}child::street = "S"]
update $a { replace $a/{shipping}child::zip with "00000" }`,
			Shallow: `for $a in document("tpcw")//address[street = "S"]
update $a { replace $a/zip with "00000" }`,
			Deep: `for $a in document("tpcw")//shippingAddress[street = "S"]
update $a { replace $a/zip with "00000" }`,
		},
	}
}

// TU3: set the status of all orders billed to a country — the update whose
// WHERE needs a join: structural for MCT/deep, a value join for shallow
// (paper: 0.36 / 15.14 / 0.65).
func tu3() *UpdateSpec {
	return &UpdateSpec{
		ID: "TU3", Desc: "set status of orders billed to Ireland",
		Colors: 0, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $o in document("tpcw")/{billing}descendant::address[{billing}child::country = "Ireland"]/{billing}child::order
update $o { replace $o/{billing}child::status with "AUDITED" }`,
			Shallow: `for $a in document("tpcw")//address[country = "Ireland"],
    $o in document("tpcw")//order
where $o/@billingIdRef = $a/@id
update $o { replace $o/status with "AUDITED" }`,
			Deep: `for $o in document("tpcw")//customer[billingAddress//country = "Ireland"]/order
update $o { replace $o/status with "AUDITED" }`,
		},
	}
}

// TU4: rewrite an author's bio. Deep touches one copy per item copy (paper
// TU4: 1 vs TU4D: 10).
func tu4() *UpdateSpec {
	return &UpdateSpec{
		ID: "TU4", Desc: "set an author's bio (by name)",
		Colors: 0, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $a in document("tpcw")/{author}descendant::author[{author}child::name = "A"]
update $a { replace $a/{author}child::bio with "B" }`,
			Shallow: `for $a in document("tpcw")//author[name = "A"]
update $a { replace $a/bio with "B" }`,
			Deep: `for $a in document("tpcw")//author[name = "A"]
update $a { replace $a/bio with "B" }`,
		},
	}
}
