module fsencr/bench

go 1.22

require fsencr v0.0.0

replace fsencr => ../
