module colorfulxml/bench

go 1.22

require colorfulxml v0.0.0

replace colorfulxml => ../
