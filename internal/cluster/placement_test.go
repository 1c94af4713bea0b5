package cluster

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// fleetOf returns a coordinator (no monitor, no sessions opened) whose
// members registered in the given order.
func fleetOf(t *testing.T, ids ...string) *Coordinator {
	t.Helper()
	c := newCoordinator(Config{})
	t.Cleanup(c.Close)
	for _, id := range ids {
		if err := c.register(RegisterArgs{ID: id, Addr: id}, new(RegisterReply)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// placement maps units 0..k-1 to the live member each would go to first
// ("" when none is alive).
func placement(c *Coordinator, k int) map[int]string {
	out := make(map[int]string, k)
	for i := 0; i < k; i++ {
		out[i] = ""
		if live, _ := c.owners(i); len(live) > 0 {
			out[i] = live[0].id
		}
	}
	return out
}

// markDead does what the heartbeat monitor does to a silent member.
func markDead(c *Coordinator, id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, m := c.lookup(id)
	m.alive = false
}

// forEachFleet runs check as a subtest for K units over W workers, for
// every fleet shape the placement tests below cover.
func forEachFleet(t *testing.T, check func(t *testing.T, k int, ids []string)) {
	for _, tt := range []struct{ k, w int }{
		{2, 2}, {1, 3}, {4, 3}, {8, 3}, {16, 4}, {5, 8}, {3, 1},
	} {
		t.Run(fmt.Sprintf("K%d_W%d", tt.k, tt.w), func(t *testing.T) {
			ids := make([]string, tt.w)
			for i := range ids {
				ids[i] = fmt.Sprintf("worker-%d", i)
			}
			check(t, tt.k, ids)
		})
	}
}

// TestRingEmpty: an empty fleet owns nothing, units and replicas alike.
func TestRingEmpty(t *testing.T) {
	for _, slot := range []int{0, 1, replicaSlot} {
		if live, primary := fleetOf(t).owners(slot); live != nil || primary != "" {
			t.Errorf("empty fleet: owners(%d) = %v, %q; want none", slot, live, primary)
		}
	}
}

// TestRingDeterministic: placement does not depend on registration order.
func TestRingDeterministic(t *testing.T) {
	forEachFleet(t, func(t *testing.T, k int, ids []string) {
		want := placement(fleetOf(t, ids...), k)
		reversed := slices.Clone(ids)
		slices.Reverse(reversed)
		if got := placement(fleetOf(t, reversed...), k); !maps.Equal(got, want) {
			t.Errorf("placement depends on registration order: %v vs %v", got, want)
		}
	})
}

// TestRingBalance: K units over W live workers load each with ⌊K/W⌋ or
// ⌈K/W⌉ units.
func TestRingBalance(t *testing.T) {
	forEachFleet(t, func(t *testing.T, k int, ids []string) {
		load := make(map[string]int)
		for _, id := range placement(fleetOf(t, ids...), k) {
			load[id]++
		}
		w := len(ids)
		for _, id := range ids {
			if n := load[id]; n < k/w || n > (k+w-1)/w {
				t.Errorf("%s owns %d of %d units (load %v)", id, n, k, load)
			}
		}
	})
}

// TestRingOwnersDistinct: the replica owners are the members, once each.
func TestRingOwnersDistinct(t *testing.T) {
	forEachFleet(t, func(t *testing.T, _ int, ids []string) {
		live, _ := fleetOf(t, ids...).owners(replicaSlot)
		var replicas []string
		for _, m := range live {
			replicas = append(replicas, m.id)
		}
		slices.Sort(replicas)
		if !slices.Equal(replicas, ids) {
			t.Errorf("replica owners %v; want the %d members once each", replicas, len(ids))
		}
	})
}

// TestRingOnlyDeadUnitsMove: a death moves the dead member's units, and
// only those, for every member of every fleet.
func TestRingOnlyDeadUnitsMove(t *testing.T) {
	forEachFleet(t, func(t *testing.T, k int, ids []string) {
		for _, dead := range ids {
			c := fleetOf(t, ids...)
			before := placement(c, k)
			markDead(c, dead)
			for unit, now := range placement(c, k) {
				was := before[unit]
				switch {
				case was == dead && (now == dead || (now == "" && len(ids) > 1)):
					t.Errorf("%s dead: unit %d routed to %q", dead, unit, now)
				case was != dead && now != was:
					t.Errorf("%s dead: unit %d moved %s -> %s", dead, unit, was, now)
				}
			}
		}
	})
}

// TestRingRejoinRestoresAssignment: a dead member that registers again
// gets back exactly the units it owned.
func TestRingRejoinRestoresAssignment(t *testing.T) {
	forEachFleet(t, func(t *testing.T, k int, ids []string) {
		c := fleetOf(t, ids...)
		before := placement(c, k)
		for _, dead := range ids {
			markDead(c, dead)
			if err := c.register(RegisterArgs{ID: dead, Addr: dead}, new(RegisterReply)); err != nil {
				t.Fatal(err)
			}
			if got := placement(c, k); !maps.Equal(got, before) {
				t.Errorf("%s rejoined: placement %v; want %v", dead, got, before)
			}
		}
	})
}
