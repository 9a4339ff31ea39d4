package workload

// SigmodQueries returns the five Table 2 SIGMOD-Record queries.
func SigmodQueries() []*Query {
	return []*Query{sq1(), sq2(), sq3(), sq4(), sq5()}
}

// SigmodUpdates returns the two Table 2 SIGMOD-Record updates.
func SigmodUpdates() []*UpdateSpec {
	return []*UpdateSpec{su1(), su2()}
}

// SQ1: article by exact title — an index point lookup everywhere (paper:
// 0.01 across the board).
func sq1() *Query {
	return &Query{
		ID: "SQ1", Desc: "article by exact title",
		Colors: 0, Trees: 1,
		Text: map[Variant]string{
			MCT: `for $a in document("sr")/{date}descendant::article[{date}child::title = "T"]
return createColor(black, <r>{ $a/{date}attribute::id }</r>)`,
			Shallow: `for $a in document("sr")//article[title = "T"] return <r>{ $a/@id }</r>`,
			Deep:    `for $a in document("sr")//article[title = "T"] return <r>{ $a/@id }</r>`,
		},
	}
}

// SQ2: articles on one topic published in one year — MCT crosses from the
// topic hierarchy to the date hierarchy; shallow value-joins; deep has the
// topic replicated inside the article (paper: 0.02 / 0.91 / 0.02).
func sq2() *Query {
	return &Query{
		ID: "SQ2", Desc: "articles on 'Query Processing' published in 1980",
		Colors: 1, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $a in document("sr")/{topic}descendant::topic[{topic}child::name = "Query Processing"]/{topic}child::article,
    $d in document("sr")/{date}descendant::year[{date}child::value = "1980"]/{date}descendant::article
where $a = $d
return createColor(black, <r>{ $a/{topic}attribute::id }</r>)`,
			Shallow: `for $t in document("sr")//topic[name = "Query Processing"],
    $a in document("sr")//article,
    $i in document("sr")//year[value = "1980"]/issue
where $a/@topicIdRef = $t/@id and $a/@issueIdRef = $i/@id
return <r>{ $a/@id }</r>`,
			Deep: `for $a in document("sr")//year[value = "1980"]/issue/article[topic/name = "Query Processing"]
return <r>{ $a/@id }</r>`,
		},
	}
}

// SQ3: articles edited by one editor — structural in MCT and deep, a value
// join over all articles in shallow (paper: 0.02 / 10.32 / 0.02).
func sq3() *Query {
	return &Query{
		ID: "SQ3", Desc: "articles whose topic is edited by one editor",
		Colors: 0, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $a in document("sr")/{topic}descendant::editor[{topic}child::name = "E"]/{topic}child::topic/{topic}child::article
return createColor(black, <r>{ $a/{topic}attribute::id }</r>)`,
			Shallow: `for $e in document("sr")//editor[name = "E"],
    $t in $e/topic,
    $a in document("sr")//article
where $a/@topicIdRef = $t/@id
return <r>{ $a/@id }</r>`,
			Deep: `for $a in document("sr")//article[topic/editor/name = "E"]
return <r>{ $a/@id }</r>`,
		},
	}
}

// SQ4: editors whose name contains a fragment — trivially small for MCT and
// shallow; deep must scan one replicated editor copy per article, one row
// per copy (paper: 0.01 / 0.01 / 0.30, SQ4D: 1994 rows).
func sq4() *Query {
	return &Query{
		ID: "SQ4", Desc: "editors whose name contains a fragment",
		Colors: 0, Trees: 1,
		Text: map[Variant]string{
			MCT: `for $e in document("sr")/{topic}descendant::editor[contains({topic}child::name, "a")]
return createColor(black, <r>{ $e/{topic}child::name }</r>)`,
			Shallow: `for $e in document("sr")//editor[contains(name, "a")] return <r>{ $e/name }</r>`,
			Deep:    `for $e in document("sr")//editor[contains(name, "a")] return <r>{ $e/name }</r>`,
		},
	}
}

// SQ5: titles of articles published in one year — structural for MCT and
// deep (the date hierarchy), a value join for shallow (paper: 0.01 / 3.11 /
// 0.01).
func sq5() *Query {
	return &Query{
		ID: "SQ5", Desc: "titles of articles published in 1979",
		Colors: 0, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $a in document("sr")/{date}descendant::year[{date}child::value = "1979"]/{date}descendant::article
return createColor(black, <r>{ $a/{date}child::title }</r>)`,
			Shallow: `for $i in document("sr")//year[value = "1979"]/issue,
    $a in document("sr")//article
where $a/@issueIdRef = $i/@id
return <r>{ $a/title }</r>`,
			Deep: `for $a in document("sr")//year[value = "1979"]//article
return <r>{ $a/title }</r>`,
		},
	}
}

// SU1: rename a topic — one element for MCT/shallow, one copy per article on
// that topic for deep (paper SU1: 5 nodes vs SU1D: 25).
func su1() *UpdateSpec {
	return &UpdateSpec{
		ID: "SU1", Desc: "rename topic Benchmarking",
		Colors: 0, Trees: 1,
		Text: map[Variant]string{
			MCT: `for $t in document("sr")/{topic}descendant::topic[{topic}child::name = "Benchmarking"]
update $t { replace $t/{topic}child::name with "Benchmarks and Evaluation" }`,
			Shallow: `for $t in document("sr")//topic[name = "Benchmarking"]
update $t { replace $t/name with "Benchmarks and Evaluation" }`,
			Deep: `for $t in document("sr")//topic[name = "Benchmarking"]
update $t { replace $t/name with "Benchmarks and Evaluation" }`,
		},
	}
}

// SU2: rename the editor of one topic — the WHERE spans both hierarchies.
// Deep touches one editor copy per article on the topic (paper SU2: 1 vs
// SU2D: 7).
func su2() *UpdateSpec {
	return &UpdateSpec{
		ID: "SU2", Desc: "rename the editor of topic Indexing",
		Colors: 0, Trees: 2,
		Text: map[Variant]string{
			MCT: `for $e in document("sr")/{topic}descendant::editor[{topic}child::topic/{topic}child::name = "Indexing"]
update $e { replace $e/{topic}child::name with "New Editor" }`,
			Shallow: `for $e in document("sr")//editor[topic/name = "Indexing"]
update $e { replace $e/name with "New Editor" }`,
			Deep: `for $e in document("sr")//topic[name = "Indexing"]/editor
update $e { replace $e/name with "New Editor" }`,
		},
	}
}
