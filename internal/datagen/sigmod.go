package datagen

import (
	"fmt"
	"math/rand"
	"strconv"

	"colorfulxml/internal/core"
)

// SIGMOD-Record entities. The paper scaled the original 600 KB document by
// 100; this generator produces an equivalent bibliography shape at a
// configurable scale.

// Issue is one SIGMOD Record issue.
type Issue struct {
	ID     int
	Volume int
	Number int
	Year   int
	Month  int
}

// Editor edits topics.
type Editor struct {
	ID   int
	Name string
}

// Topic is a subject area maintained by an editor.
type Topic struct {
	ID     int
	Name   string
	Editor int // Editor.ID
}

// SArticle is one article, appearing both in an issue (date hierarchy) and
// under a topic (editor hierarchy).
type SArticle struct {
	ID       int
	Title    string
	InitPage int
	EndPage  int
	Issue    int // Issue.ID
	Topic    int // Topic.ID
	Authors  []string
}

// SigmodEntities is the generated pool.
type SigmodEntities struct {
	Issues   []Issue
	Editors  []Editor
	Topics   []Topic
	Articles []SArticle
}

// SigmodConfig controls generation.
type SigmodConfig struct {
	Scale int
	Seed  int64
}

var topicNames = []string{
	"Query Processing", "Data Mining", "Transaction Management", "Indexing",
	"Distributed Systems", "Information Retrieval", "Data Models",
	"Storage Systems", "Benchmarking", "Stream Processing", "XML",
	"Optimization", "Concurrency", "Recovery", "Privacy", "Visualization",
}

// GenSigmodEntities generates the pool.
func GenSigmodEntities(cfg SigmodConfig) *SigmodEntities {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	e := &SigmodEntities{}
	nEditors := 12
	for i := 1; i <= nEditors; i++ {
		e.Editors = append(e.Editors, Editor{
			ID:   i,
			Name: fmt.Sprintf("%s %s", wordAt(rng, firstNames), wordAt(rng, lastNames)),
		})
	}
	for i, tn := range topicNames {
		// Every editor edits a topic, or the deep representation (which holds
		// editors only as copies under their topics' articles) would lack
		// the ones that edit none. The draw stays, so the rest of the pool
		// is the same.
		editor := 1 + rng.Intn(nEditors)
		if i < nEditors {
			editor = i + 1
		}
		e.Topics = append(e.Topics, Topic{ID: i + 1, Name: tn, Editor: editor})
	}
	nIssues := 40 * cfg.Scale
	aid := 0
	for i := 1; i <= nIssues; i++ {
		year := 1975 + (i-1)/4
		iss := Issue{ID: i, Volume: (i-1)/4 + 1, Number: (i-1)%4 + 1, Year: year, Month: ((i - 1) % 4) * 3}
		e.Issues = append(e.Issues, iss)
		n := 8 + rng.Intn(8)
		page := 1
		for k := 0; k < n; k++ {
			aid++
			na := 1 + rng.Intn(3)
			var authors []string
			for a := 0; a < na; a++ {
				authors = append(authors,
					fmt.Sprintf("%s %s", wordAt(rng, firstNames), wordAt(rng, lastNames)))
			}
			length := 3 + rng.Intn(20)
			e.Articles = append(e.Articles, SArticle{
				ID:       aid,
				Title:    fmt.Sprintf("On the %s of %s", wordAt(rng, titleAdjs), wordAt(rng, topicNames)),
				InitPage: page,
				EndPage:  page + length,
				Issue:    i,
				Topic:    1 + rng.Intn(len(e.Topics)),
				Authors:  authors,
			})
			page += length + 1
		}
	}
	return e
}

// Sigmod generates the pool and all three representations.
func Sigmod(cfg SigmodConfig) (*Dataset, error) {
	e := GenSigmodEntities(cfg)
	mct, err := BuildSigmodMCT(e)
	if err != nil {
		return nil, fmt.Errorf("datagen: sigmod mct: %w", err)
	}
	shallow, err := BuildSigmodShallow(e)
	if err != nil {
		return nil, fmt.Errorf("datagen: sigmod shallow: %w", err)
	}
	deep, err := BuildSigmodDeep(e)
	if err != nil {
		return nil, fmt.Errorf("datagen: sigmod deep: %w", err)
	}
	return &Dataset{MCT: mct, Shallow: shallow, Deep: deep, Sigmod: e}, nil
}

// articleFields emits the shared article fields and returns them for color
// adoption.
func articleFields(b *builder, n *core.Node, a SArticle, c core.Color) []*core.Node {
	out := []*core.Node{
		b.field(n, "title", c, a.Title),
		b.field(n, "initPage", c, strconv.Itoa(a.InitPage)),
		b.field(n, "endPage", c, strconv.Itoa(a.EndPage)),
	}
	for _, au := range a.Authors {
		out = append(out, b.field(n, "authorName", c, au))
	}
	return out
}

// BuildSigmodMCT materializes the two-hierarchy MCT representation:
//
//	date--issue--articles   (color "date")
//	editor--topic--articles (color "topic")
func BuildSigmodMCT(e *SigmodEntities) (*core.Database, error) {
	db := core.NewDatabase(ColIssueDate, ColTopic)
	b := &builder{db: db}
	doc := db.Document()

	dateRoot := b.el(doc, "sigmodRecord", ColIssueDate)
	yearNode := map[int]*core.Node{}
	articleNode := map[int]*core.Node{}
	issueNode := map[int]*core.Node{}
	for _, iss := range e.Issues {
		y, ok := yearNode[iss.Year]
		if !ok {
			y = b.el(dateRoot, "year", ColIssueDate)
			b.field(y, "value", ColIssueDate, strconv.Itoa(iss.Year))
			yearNode[iss.Year] = y
		}
		n := b.el(y, "issue", ColIssueDate)
		b.attr(n, "id", fmt.Sprintf("S%d", iss.ID))
		b.field(n, "volume", ColIssueDate, strconv.Itoa(iss.Volume))
		b.field(n, "number", ColIssueDate, strconv.Itoa(iss.Number))
		issueNode[iss.ID] = n
	}
	for _, a := range e.Articles {
		n := b.el(issueNode[a.Issue], "article", ColIssueDate)
		b.attr(n, "id", fmt.Sprintf("P%d", a.ID))
		fields := articleFields(b, n, a, ColIssueDate)
		articleNode[a.ID] = n
		_ = fields
	}

	editorRoot := b.el(doc, "editors", ColTopic)
	editorNode := map[int]*core.Node{}
	topicNode := map[int]*core.Node{}
	for _, ed := range e.Editors {
		n := b.el(editorRoot, "editor", ColTopic)
		b.attr(n, "id", fmt.Sprintf("E%d", ed.ID))
		b.field(n, "name", ColTopic, ed.Name)
		editorNode[ed.ID] = n
	}
	for _, tp := range e.Topics {
		n := b.el(editorNode[tp.Editor], "topic", ColTopic)
		b.attr(n, "id", fmt.Sprintf("T%d", tp.ID))
		b.field(n, "name", ColTopic, tp.Name)
		topicNode[tp.ID] = n
	}
	for _, a := range e.Articles {
		n := articleNode[a.ID]
		b.adopt(topicNode[a.Topic], n, ColTopic)
		// Article fields carry both colors (the paper's convention).
		for _, c := range []core.Color{ColTopic} {
			for _, f := range core.Children(n, ColIssueDate) {
				if f.Kind() == core.KindElement && !f.HasColor(c) {
					b.adopt(n, f, c)
				}
			}
		}
	}

	if b.err != nil {
		return nil, b.err
	}
	return db, nil
}

// BuildSigmodShallow materializes the paper's shallow variant with its three
// sections: articles (flat, with idrefs), date--issue, and editor--topic.
func BuildSigmodShallow(e *SigmodEntities) (*core.Database, error) {
	db := core.NewDatabase(ColDoc)
	b := &builder{db: db}
	root := b.el(db.Document(), "sigmodRecord", ColDoc)

	dates := b.el(root, "dates", ColDoc)
	yearNode := map[int]*core.Node{}
	for _, iss := range e.Issues {
		y, ok := yearNode[iss.Year]
		if !ok {
			y = b.el(dates, "year", ColDoc)
			b.field(y, "value", ColDoc, strconv.Itoa(iss.Year))
			yearNode[iss.Year] = y
		}
		n := b.el(y, "issue", ColDoc)
		b.attr(n, "id", fmt.Sprintf("S%d", iss.ID))
		b.field(n, "volume", ColDoc, strconv.Itoa(iss.Volume))
		b.field(n, "number", ColDoc, strconv.Itoa(iss.Number))
	}
	editors := b.el(root, "editors", ColDoc)
	for _, ed := range e.Editors {
		n := b.el(editors, "editor", ColDoc)
		b.attr(n, "id", fmt.Sprintf("E%d", ed.ID))
		b.field(n, "name", ColDoc, ed.Name)
		for _, tp := range e.Topics {
			if tp.Editor != ed.ID {
				continue
			}
			tn := b.el(n, "topic", ColDoc)
			b.attr(tn, "id", fmt.Sprintf("T%d", tp.ID))
			b.field(tn, "name", ColDoc, tp.Name)
		}
	}
	articles := b.el(root, "articles", ColDoc)
	for _, a := range e.Articles {
		n := b.el(articles, "article", ColDoc)
		b.attr(n, "id", fmt.Sprintf("P%d", a.ID))
		b.attr(n, "issueIdRef", fmt.Sprintf("S%d", a.Issue))
		b.attr(n, "topicIdRef", fmt.Sprintf("T%d", a.Topic))
		articleFields(b, n, a, ColDoc)
	}

	if b.err != nil {
		return nil, b.err
	}
	return db, nil
}

// BuildSigmodDeep materializes the deep variant: the natural
// date>issue>article hierarchy with the topic and its editor REPLICATED
// inside every article.
func BuildSigmodDeep(e *SigmodEntities) (*core.Database, error) {
	db := core.NewDatabase(ColDoc)
	b := &builder{db: db}
	root := b.el(db.Document(), "sigmodRecord", ColDoc)

	yearNode := map[int]*core.Node{}
	issueNode := map[int]*core.Node{}
	for _, iss := range e.Issues {
		y, ok := yearNode[iss.Year]
		if !ok {
			y = b.el(root, "year", ColDoc)
			b.field(y, "value", ColDoc, strconv.Itoa(iss.Year))
			yearNode[iss.Year] = y
		}
		n := b.el(y, "issue", ColDoc)
		b.attr(n, "id", fmt.Sprintf("S%d", iss.ID))
		b.field(n, "volume", ColDoc, strconv.Itoa(iss.Volume))
		b.field(n, "number", ColDoc, strconv.Itoa(iss.Number))
		issueNode[iss.ID] = n
	}
	for _, a := range e.Articles {
		n := b.el(issueNode[a.Issue], "article", ColDoc)
		b.attr(n, "id", fmt.Sprintf("P%d", a.ID))
		articleFields(b, n, a, ColDoc)
		tp := e.Topics[a.Topic-1]
		tn := b.el(n, "topic", ColDoc) // replicated per article
		b.field(tn, "name", ColDoc, tp.Name)
		ed := e.Editors[tp.Editor-1]
		en := b.el(tn, "editor", ColDoc) // replicated per article
		b.field(en, "name", ColDoc, ed.Name)
	}

	if b.err != nil {
		return nil, b.err
	}
	return db, nil
}
