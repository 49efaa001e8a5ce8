package chaos

import "testing"

// TestMigrationCrashCampaign sweeps a node crash over every migration
// persist point for both victims and requires the coordinator contract to
// hold at each: complete or roll back cleanly, no split-brain, no lost
// acknowledged data on a live owner, and a rolled-back target left as it was.
func TestMigrationCrashCampaign(t *testing.T) {
	res, err := RunMigrationCrash()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(res.Cases) != 8 {
		t.Fatalf("campaign ran %d cases, want 8", len(res.Cases))
	}
	for _, c := range res.Cases {
		if c.Outcome != c.Expected {
			t.Errorf("%s/%s: outcome %s, want %s (err=%s)", c.Step, c.Victim, c.Outcome, c.Expected, c.Err)
		}
		if c.SplitBrain {
			t.Errorf("%s/%s: split-brain — two live nodes serve the shard", c.Step, c.Victim)
		}
		if c.Residue {
			t.Errorf("%s/%s: the rollback left a replica on the target", c.Step, c.Victim)
		}
		if c.OwnerAlive && !c.DataIntact {
			t.Errorf("%s/%s: live owner lost acknowledged data", c.Step, c.Victim)
		}
	}
	if !res.Clean() {
		t.Fatalf("campaign not clean:\n%s", res.String())
	}
}
