module sperke/bench

go 1.22

require sperke v0.0.0

replace sperke => ../
