package server_test

import (
	"testing"

	"colorfulxml/client"
	"colorfulxml/internal/server"
)

// BenchmarkPreparedOverWire times a warm client.Stmt execution against a
// loopback server: the wire hop on its own (client, frames, server,
// session kernel) for a 1-row point statement, and for a 1 667-row flwor
// statement whose result spans two Items frames.
func BenchmarkPreparedOverWire(b *testing.B) {
	_, _, addr := startCatalog(b, 5000, server.Options{})
	cdb, err := client.OpenOptions(addr, client.Options{PoolSize: 1, IdlePingAfter: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer cdb.Close()
	for _, bc := range []struct {
		name, src string
		rows      int
	}{
		{"point", `document("db")/{red}descendant::name[. = "Item 7"]`, 1},
		{"flwor", `for $i in document("db")/{green}descendant::item return $i/{green}child::votes`, 1667},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := cdb.Prepare(bc.src)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := st.Query()
				if err != nil || len(got) != bc.rows {
					b.Fatalf("%s returned %d rows (%v), want %d", bc.name, len(got), err, bc.rows)
				}
			}
		})
	}
}
