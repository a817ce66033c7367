//! A realistic middleware workload: an **auction house**.
//!
//! This is the kind of application the paper's introduction is about — an
//! ordinary object-oriented program written with no distribution in mind
//! (items, bidders, an auctioneer, an audit log), which the RAFDA
//! transformation later makes distributable without touching its source:
//! bidders can live on client nodes, the item catalogue on a server node,
//! and the audit log's static state on whichever node policy picks.
//!
//! Program sketch (all built as mini-bytecode):
//!
//! ```java
//! class Item {
//!     String name; int price; int bids;
//!     Item(String name, int price) { … }
//!     int outbid(int amount) {           // returns the new price
//!         if (amount <= price) return price;
//!         price = amount; bids = bids + 1;
//!         AuditLog.record(1);
//!         return price;
//!     }
//! }
//! class Bidder {
//!     String name; int budget;
//!     Bidder(String name, int budget) { … }
//!     int bid(Item item, int amount) {   // 0 = declined
//!         if (amount > budget) return 0;
//!         int p = item.outbid(amount);
//!         if (p == amount) { budget = budget - amount; return p; }
//!         return 0;
//!     }
//! }
//! class Auction {
//!     Item first; Item second; Item third;
//!     int round(Bidder b, int base) {    // bids on all three items
//!         int total = 0;
//!         total += b.bid(first,  base + 10);
//!         total += b.bid(second, base + 20);
//!         total += b.bid(third,  base + 30);
//!         return total;
//!     }
//! }
//! class AuditLog {
//!     static int entries;
//!     static void record(int n) { entries = entries + n; }
//!     static int count() { return entries; }
//! }
//! class AuctionMain {
//!     static int main(int seed) { … emits per-round totals and the audit count … }
//! }
//! ```

use crate::app::ObserverHooks;
use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::{ClassId, ClassKind, ClassUniverse, CmpOp, Field, Ty, UnOp};

/// The classes of the auction-house scenario.
#[derive(Debug, Clone, Copy)]
pub struct AuctionIds {
    /// `Item` — the auctioned good (name, price, bid count).
    pub item: ClassId,
    /// `Bidder` — budget-constrained participant.
    pub bidder: ClassId,
    /// `Auction` — holds three items, runs bidding rounds.
    pub auction: ClassId,
    /// `AuditLog` — static bid counter (statics coverage).
    pub audit_log: ClassId,
    /// `AuctionMain` — the driver entry point.
    pub main: ClassId,
}

/// Build the auction house into `universe`. `Driver`-style entry point:
/// `AuctionMain.main(seed)`.
pub fn build_auction_house(universe: &mut ClassUniverse, observer: ObserverHooks) -> AuctionIds {
    let item = universe.declare("Item", ClassKind::Class);
    let bidder = universe.declare("Bidder", ClassKind::Class);
    let auction = universe.declare("Auction", ClassKind::Class);
    let audit = universe.declare("AuditLog", ClassKind::Class);
    let main = universe.declare("AuctionMain", ClassKind::Class);

    // ---- AuditLog ----
    {
        let mut cb = ClassBuilder::new(universe, audit);
        let entries = cb.static_field(Field::new("entries", Ty::Int));
        // static void record(int n) { entries = entries + n; }
        let mut mb = MethodBuilder::new(1);
        mb.get_static(audit, entries);
        mb.load_local(0).add();
        mb.put_static(audit, entries);
        mb.ret();
        cb.static_method(
            universe,
            "record",
            vec![Ty::Int],
            Ty::Void,
            Some(mb.finish()),
        );
        // static int count() { return entries; }
        let mut mb = MethodBuilder::new(0);
        mb.get_static(audit, entries).ret_value();
        cb.static_method(universe, "count", vec![], Ty::Int, Some(mb.finish()));
        // static { entries = 0; }
        let mut mb = MethodBuilder::new(0);
        mb.const_int(0).put_static(audit, entries).ret();
        cb.clinit(universe, mb.finish());
        cb.finish(universe);
    }

    // ---- Item ----
    {
        let mut cb = ClassBuilder::new(universe, item);
        let name = cb.field(Field::new("name", Ty::Str));
        let price = cb.field(Field::new("price", Ty::Int));
        let bids = cb.field(Field::new("bids", Ty::Int));
        let mut mb = MethodBuilder::new(3);
        mb.load_this().load_local(1).put_field(item, name);
        mb.load_this().load_local(2).put_field(item, price);
        mb.ret();
        cb.ctor(universe, vec![Ty::Str, Ty::Int], Some(mb.finish()));
        // int outbid(int amount)
        let record_sig = universe.sig("record", vec![Ty::Int]);
        let mut mb = MethodBuilder::new(2);
        let reject = mb.label();
        mb.load_local(1);
        mb.load_this().get_field(item, price);
        mb.cmp(CmpOp::Le);
        mb.jump_if(reject);
        mb.load_this().load_local(1).put_field(item, price);
        mb.load_this();
        mb.load_this().get_field(item, bids);
        mb.const_int(1).add();
        mb.put_field(item, bids);
        mb.const_int(1);
        mb.invoke_static(audit, record_sig, 1);
        mb.pop();
        mb.load_this().get_field(item, price);
        mb.ret_value();
        mb.bind(reject);
        mb.load_this().get_field(item, price);
        mb.ret_value();
        cb.method(
            universe,
            "outbid",
            vec![Ty::Int],
            Ty::Int,
            Some(mb.finish()),
        );
        // String describe() { return name + "@" + price; }
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(item, name);
        mb.const_str("@").add();
        mb.load_this().get_field(item, price);
        mb.unop(UnOp::Convert("string"));
        mb.add();
        mb.ret_value();
        cb.method(universe, "describe", vec![], Ty::Str, Some(mb.finish()));
        cb.finish(universe);
    }

    // ---- Bidder ----
    {
        let mut cb = ClassBuilder::new(universe, bidder);
        let name = cb.field(Field::new("name", Ty::Str));
        let budget = cb.field(Field::new("budget", Ty::Int));
        let mut mb = MethodBuilder::new(3);
        mb.load_this().load_local(1).put_field(bidder, name);
        mb.load_this().load_local(2).put_field(bidder, budget);
        mb.ret();
        cb.ctor(universe, vec![Ty::Str, Ty::Int], Some(mb.finish()));
        // int bid(Item item, int amount)
        let outbid_sig = universe.sig("outbid", vec![Ty::Int]);
        let mut mb = MethodBuilder::new(3);
        let declined = mb.label();
        mb.load_local(2);
        mb.load_this().get_field(bidder, budget);
        mb.cmp(CmpOp::Gt);
        mb.jump_if(declined);
        let p = mb.alloc_local();
        mb.load_local(1);
        mb.load_local(2);
        mb.invoke(outbid_sig, 1);
        mb.store_local(p);
        // if (p == amount) { budget -= amount; return p; }
        let lost = mb.label();
        mb.load_local(p).load_local(2).cmp(CmpOp::Ne);
        mb.jump_if(lost);
        mb.load_this();
        mb.load_this().get_field(bidder, budget);
        mb.load_local(2).sub();
        mb.put_field(bidder, budget);
        mb.load_local(p).ret_value();
        mb.bind(lost);
        mb.const_int(0).ret_value();
        mb.bind(declined);
        mb.const_int(0).ret_value();
        cb.method(
            universe,
            "bid",
            vec![Ty::Object(item), Ty::Int],
            Ty::Int,
            Some(mb.finish()),
        );
        cb.finish(universe);
    }

    // ---- Auction ----
    {
        let mut cb = ClassBuilder::new(universe, auction);
        let first = cb.field(Field::new("first", Ty::Object(item)));
        let second = cb.field(Field::new("second", Ty::Object(item)));
        let third = cb.field(Field::new("third", Ty::Object(item)));
        let mut mb = MethodBuilder::new(4);
        mb.load_this().load_local(1).put_field(auction, first);
        mb.load_this().load_local(2).put_field(auction, second);
        mb.load_this().load_local(3).put_field(auction, third);
        mb.ret();
        cb.ctor(
            universe,
            vec![Ty::Object(item), Ty::Object(item), Ty::Object(item)],
            Some(mb.finish()),
        );
        // int round(Bidder b, int base)
        let bid_sig = universe.sig("bid", vec![Ty::Object(item), Ty::Int]);
        let mut mb = MethodBuilder::new(3);
        let total = mb.alloc_local();
        mb.const_int(0).store_local(total);
        for (k, f) in [(10, first), (20, second), (30, third)] {
            mb.load_local(total);
            mb.load_local(1);
            mb.load_this().get_field(auction, f);
            mb.load_local(2).const_int(k).add();
            mb.invoke(bid_sig, 2);
            mb.add().store_local(total);
        }
        mb.load_local(total).ret_value();
        cb.method(
            universe,
            "round",
            vec![Ty::Object(bidder), Ty::Int],
            Ty::Int,
            Some(mb.finish()),
        );
        cb.finish(universe);
    }

    // ---- AuctionMain ----
    {
        let mut cb = ClassBuilder::new(universe, main);
        let count_sig = universe.sig("count", vec![]);
        let round_sig = universe.sig("round", vec![Ty::Object(bidder), Ty::Int]);
        let mut mb = MethodBuilder::new(1);
        let emit = |mb: &mut MethodBuilder| {
            mb.unop(UnOp::Convert("long"));
            mb.invoke_static(observer.class, observer.emit, 1);
            mb.pop();
        };
        // Items and bidders.
        let a = mb.alloc_local();
        let alice = mb.alloc_local();
        let bob = mb.alloc_local();
        mb.const_str("clock").load_local(0).new_init(item, 0, 2);
        let i1 = mb.alloc_local();
        mb.store_local(i1);
        mb.const_str("vase");
        mb.load_local(0).const_int(5).add();
        mb.new_init(item, 0, 2);
        let i2 = mb.alloc_local();
        mb.store_local(i2);
        mb.const_str("rug");
        mb.load_local(0).const_int(9).add();
        mb.new_init(item, 0, 2);
        let i3 = mb.alloc_local();
        mb.store_local(i3);
        mb.load_local(i1).load_local(i2).load_local(i3);
        mb.new_init(auction, 0, 3);
        mb.store_local(a);
        mb.const_str("alice");
        mb.load_local(0).const_int(200).add();
        mb.new_init(bidder, 0, 2);
        mb.store_local(alice);
        mb.const_str("bob");
        mb.load_local(0).const_int(150).add();
        mb.new_init(bidder, 0, 2);
        mb.store_local(bob);
        // Three rounds of competing bids.
        for (who, base_add) in [(alice, 15), (bob, 25), (alice, 40)] {
            mb.load_local(a);
            mb.load_local(who);
            mb.load_local(0).const_int(base_add).add();
            mb.invoke(round_sig, 2);
            emit(&mut mb);
        }
        // Audit count (statics through discover()).
        mb.invoke_static(audit, count_sig, 0);
        emit(&mut mb);
        mb.invoke_static(audit, count_sig, 0);
        mb.ret_value();
        cb.static_method(universe, "main", vec![Ty::Int], Ty::Int, Some(mb.finish()));
        cb.finish(universe);
    }

    AuctionIds {
        item,
        bidder,
        auction,
        audit_log: audit,
        main,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observer_stub(universe: &mut ClassUniverse) -> ObserverHooks {
        let class = universe.declare("Observer", ClassKind::Class);
        let emit = universe.sig("emit", vec![Ty::Long]);
        let mut c = universe.class(class).clone();
        c.is_special = true;
        c.methods.push(rafda_classmodel::Method {
            name: "emit".into(),
            sig: emit,
            params: vec![Ty::Long].into(),
            ret: Ty::Void,
            visibility: rafda_classmodel::Visibility::Public,
            is_static: true,
            is_native: true,
            body: None,
        });
        universe.define(class, c);
        ObserverHooks { class, emit }
    }

    #[test]
    fn auction_house_verifies() {
        let mut u = ClassUniverse::new();
        let obs = observer_stub(&mut u);
        let ids = build_auction_house(&mut u, obs);
        rafda_classmodel::verify_universe(&u).unwrap();
        assert_eq!(&*u.class(ids.item).name, "Item");
        assert_eq!(u.class(ids.audit_log).static_fields.len(), 1);
        assert!(u.class(ids.main).method_index("main").is_some());
    }

    #[test]
    fn auction_house_is_fully_transformable_shape() {
        // No natives, no specials (other than the observer stub): the whole
        // scenario should be a transformation candidate.
        let mut u = ClassUniverse::new();
        let obs = observer_stub(&mut u);
        build_auction_house(&mut u, obs);
        let natives = u
            .iter()
            .filter(|(_, c)| c.has_native_method() && !c.is_special)
            .count();
        assert_eq!(natives, 0);
    }
}
