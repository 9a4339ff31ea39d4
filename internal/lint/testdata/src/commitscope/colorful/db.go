// Package colorful mirrors the durable commit-scope protocol the analyzer
// guards: commitLocked brackets a mutation with beginCommit and
// commitChanges, commit is commitLocked under the writer lock, and the
// embedded Database's mutators may only run in a closure passed straight to
// one of them.
package colorful

type Database struct{}

func (d *Database) AddElement(parent int, tag string) int { return 0 }
func (d *Database) Delete(n int)                          {}

type DB struct {
	Database *Database
}

type mark struct{}

func (d *DB) beginCommit() (mark, error) { return mark{}, nil }
func (d *DB) commitChanges(m mark) error { return nil }

// The one commit scope: the only caller of beginCommit and commitChanges.
func (d *DB) commitLocked(mutate func() error) error {
	m, err := d.beginCommit()
	if err != nil {
		return err
	}
	err = mutate()
	if cerr := d.commitChanges(m); err == nil {
		err = cerr
	}
	return err
}

func (d *DB) commit(mutate func() error) error { return d.commitLocked(mutate) }

// A closure passed to commit: conforming.
func (d *DB) AddElement(parent int, tag string) (id int, err error) {
	err = d.commit(func() error {
		id = d.Database.AddElement(parent, tag)
		return nil
	})
	return id, err
}

// A closure passed to commitLocked, loop included: conforming.
func (d *DB) bulk(parents []int) error {
	return d.commitLocked(func() error {
		for _, p := range parents {
			d.Database.AddElement(p, "x")
		}
		return nil
	})
}

// The DB wrapper of the same name is not a core mutator: conforming.
func (d *DB) viaWrapper(parent int) {
	d.AddElement(parent, "x")
}

// Mutating with no scope at all.
func (d *DB) naked(parent int) {
	d.Database.AddElement(parent, "x") // want "core mutator AddElement called outside a durable commit scope"
	d.Database.Delete(parent)          // want "core mutator Delete called outside a durable commit scope"
}

// A closure stored in a variable is not passed directly: it may run
// anywhere, or never inside the scope.
func (d *DB) stored(parent int) error {
	f := func() error {
		d.Database.Delete(parent) // want "core mutator Delete called outside a durable commit scope"
		return nil
	}
	return d.commit(f)
}

// A goroutine started inside the scope outlives it.
func (d *DB) spawned(parent int) error {
	go func() {
		d.Database.Delete(parent) // want "core mutator Delete called outside a durable commit scope"
	}()
	return d.commit(func() error {
		go func() {
			d.Database.AddElement(parent, "x") // want "core mutator AddElement called outside a durable commit scope"
		}()
		return nil
	})
}

// Hand-rolled brackets outside commitLocked.
func (d *DB) handRolled(parent int) error {
	m, _ := d.beginCommit()            // want "beginCommit called outside commitLocked"
	d.Database.AddElement(parent, "x") // want "core mutator AddElement called outside a durable commit scope"
	return d.commitChanges(m)          // want "commitChanges called outside commitLocked"
}
