package tpcc

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"noftl"
)

// TxnType identifies one of the five TPC-C transaction types.
type TxnType int

// The five TPC-C transactions.
const (
	TxnNewOrder TxnType = iota
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
	txnTypeCount
)

func (t TxnType) String() string {
	switch t {
	case TxnNewOrder:
		return "NewOrder"
	case TxnPayment:
		return "Payment"
	case TxnOrderStatus:
		return "OrderStatus"
	case TxnDelivery:
		return "Delivery"
	case TxnStockLevel:
		return "StockLevel"
	default:
		return "Unknown"
	}
}

// errRollback marks the intentional 1 % NewOrder rollback (invalid item).
var errRollback = errors.New("tpcc: intentional rollback")

// terminal is one closed-loop TPC-C terminal bound to a home warehouse and
// district.
type terminal struct {
	db  *noftl.DB
	sch *Schema
	cfg Config
	r   *rng
	wID int
	dID int
}

// pickType draws a transaction type following the standard mix
// (45/43/4/4/4).
func (t *terminal) pickType() TxnType {
	v := t.r.uniform(1, 100)
	switch {
	case v <= 45:
		return TxnNewOrder
	case v <= 88:
		return TxnPayment
	case v <= 92:
		return TxnOrderStatus
	case v <= 96:
		return TxnDelivery
	default:
		return TxnStockLevel
	}
}

// run executes one transaction of the given type and returns whether it
// committed.
func (t *terminal) run(typ TxnType, tx *noftl.Tx) error {
	switch typ {
	case TxnNewOrder:
		return t.newOrder(tx)
	case TxnPayment:
		return t.payment(tx)
	case TxnOrderStatus:
		return t.orderStatus(tx)
	case TxnDelivery:
		return t.delivery(tx)
	case TxnStockLevel:
		return t.stockLevel(tx)
	default:
		return fmt.Errorf("tpcc: unknown transaction type %d", typ)
	}
}

// ---- row access helpers ----

func (t *terminal) getWarehouse(tx *noftl.Tx, w int) (Warehouse, noftl.RID, error) {
	rid, found, err := t.sch.WIdx.Lookup(tx, warehouseKey(w))
	if err != nil || !found {
		return Warehouse{}, noftl.RID{}, fmt.Errorf("warehouse %d: found=%v %w", w, found, err)
	}
	row, err := t.sch.Warehouse.Get(tx, rid)
	if err != nil {
		return Warehouse{}, noftl.RID{}, err
	}
	wh, err := DecodeWarehouse(row)
	return wh, rid, err
}

func (t *terminal) getDistrict(tx *noftl.Tx, w, d int) (District, noftl.RID, error) {
	rid, found, err := t.sch.DIdx.Lookup(tx, districtKey(w, d))
	if err != nil || !found {
		return District{}, noftl.RID{}, fmt.Errorf("district %d/%d: found=%v %w", w, d, found, err)
	}
	row, err := t.sch.District.Get(tx, rid)
	if err != nil {
		return District{}, noftl.RID{}, err
	}
	dist, err := DecodeDistrict(row)
	return dist, rid, err
}

func (t *terminal) getCustomerByID(tx *noftl.Tx, w, d, c int) (Customer, noftl.RID, error) {
	rid, found, err := t.sch.CIdx.Lookup(tx, customerKey(w, d, c))
	if err != nil || !found {
		return Customer{}, noftl.RID{}, fmt.Errorf("customer %d/%d/%d: found=%v %w", w, d, c, found, err)
	}
	row, err := t.sch.Customer.Get(tx, rid)
	if err != nil {
		return Customer{}, noftl.RID{}, err
	}
	cust, err := DecodeCustomer(row)
	return cust, rid, err
}

// getCustomerByName selects the middle customer (per clause 2.5.2.2) among
// those sharing the last name.
func (t *terminal) getCustomerByName(tx *noftl.Tx, w, d int, last string) (Customer, noftl.RID, error) {
	var rids []noftl.RID
	err := t.sch.CNameIdx.ScanPrefix(tx, customerNamePrefix(w, d, last), func(_ []byte, rid noftl.RID) bool {
		rids = append(rids, rid)
		return true
	})
	if err != nil {
		return Customer{}, noftl.RID{}, err
	}
	if len(rids) == 0 {
		// The scaled name space may not contain this name; fall back to a
		// uniformly chosen customer id so the transaction still does work.
		return t.getCustomerByID(tx, w, d, t.r.uniform(1, t.cfg.CustomersPerDistrict))
	}
	rid := rids[len(rids)/2]
	row, err := t.sch.Customer.Get(tx, rid)
	if err != nil {
		return Customer{}, noftl.RID{}, err
	}
	cust, err := DecodeCustomer(row)
	return cust, rid, err
}

// ---- the five transactions ----

// newOrder implements the New-Order transaction (clause 2.4).
func (t *terminal) newOrder(tx *noftl.Tx) error {
	w := t.wID
	d := t.r.uniform(1, t.cfg.DistrictsPerWarehouse)
	c := t.r.customerID(t.cfg.CustomersPerDistrict)
	olCnt := t.r.uniform(5, 15)
	rollback := t.r.uniform(1, 100) == 1

	// Choose the items up front and lock them in canonical order (sorted by
	// item id) so concurrent NewOrders cannot deadlock.
	items := make([]int, olCnt)
	for i := range items {
		items[i] = t.r.itemID(t.cfg.ItemCount)
	}
	lockOrder := append([]int(nil), items...)
	sort.Ints(lockOrder)

	// The district row is the serialization point (O_ID assignment).
	if err := tx.Lock(districtLockKey(w, d), noftl.Exclusive); err != nil {
		return err
	}
	for _, it := range lockOrder {
		if err := tx.Lock(stockLockKey(w, it), noftl.Exclusive); err != nil {
			return err
		}
	}

	wh, _, err := t.getWarehouse(tx, w)
	if err != nil {
		return err
	}
	dist, drid, err := t.getDistrict(tx, w, d)
	if err != nil {
		return err
	}
	cust, _, err := t.getCustomerByID(tx, w, d, c)
	if err != nil {
		return err
	}
	_ = wh
	_ = cust

	oID := int(dist.NextOID)
	dist.NextOID++
	if err := t.sch.District.Update(tx, drid, dist.Encode()); err != nil {
		return err
	}

	if rollback {
		// Clause 2.4.1.4: roughly 1 % of NewOrder transactions are rolled
		// back because of an unused (invalid) item number.
		return errRollback
	}

	ord := Order{
		OID: uint32(oID), DID: uint32(d), WID: uint32(w), CID: uint32(c),
		EntryDate: int64(tx.Now()), OLCount: uint32(olCnt), AllLocal: 1,
	}
	orid, err := t.sch.Order.Insert(tx, ord.Encode())
	if err != nil {
		return err
	}
	if err := t.sch.OIdx.Insert(tx, orderKey(w, d, oID), orid); err != nil {
		return err
	}
	if err := t.sch.OCustIdx.Insert(tx, orderCustKey(w, d, c, oID), orid); err != nil {
		return err
	}
	no := NewOrder{OID: uint32(oID), DID: uint32(d), WID: uint32(w)}
	nrid, err := t.sch.NewOrder.Insert(tx, no.Encode())
	if err != nil {
		return err
	}
	if err := t.sch.NOIdx.Insert(tx, newOrderKey(w, d, oID), nrid); err != nil {
		return err
	}

	for n, itemID := range items {
		// Item lookup (read only).
		irid, found, err := t.sch.IIdx.Lookup(tx, itemKey(itemID))
		if err != nil || !found {
			return fmt.Errorf("item %d: found=%v %w", itemID, found, err)
		}
		irow, err := t.sch.Item.Get(tx, irid)
		if err != nil {
			return err
		}
		item, err := DecodeItem(irow)
		if err != nil {
			return err
		}
		// Stock update.
		srid, found, err := t.sch.SIdx.Lookup(tx, stockKey(w, itemID))
		if err != nil || !found {
			return fmt.Errorf("stock %d/%d: found=%v %w", w, itemID, found, err)
		}
		srow, err := t.sch.Stock.Get(tx, srid)
		if err != nil {
			return err
		}
		st, err := DecodeStock(srow)
		if err != nil {
			return err
		}
		qty := uint32(t.r.uniform(1, 10))
		if st.Quantity >= qty+10 {
			st.Quantity -= qty
		} else {
			st.Quantity = st.Quantity - qty + 91
		}
		st.YTD += int64(qty)
		st.OrderCnt++
		if err := t.sch.Stock.Update(tx, srid, st.Encode()); err != nil {
			return err
		}
		// Order line insert.
		ol := OrderLine{
			OID: uint32(oID), DID: uint32(d), WID: uint32(w), Number: uint32(n + 1),
			ItemID: uint32(itemID), SupplyWID: uint32(w), Quantity: qty,
			Amount:   int64(qty) * item.Price,
			DistInfo: st.Dists[(d-1)%10],
		}
		olrid, err := t.sch.OrderLine.Insert(tx, ol.Encode())
		if err != nil {
			return err
		}
		if err := t.sch.OLIdx.Insert(tx, orderLineKey(w, d, oID, n+1), olrid); err != nil {
			return err
		}
	}
	return nil
}

// payment implements the Payment transaction (clause 2.5).
func (t *terminal) payment(tx *noftl.Tx) error {
	w := t.wID
	d := t.r.uniform(1, t.cfg.DistrictsPerWarehouse)
	amount := int64(t.r.uniform(100, 500000))

	if err := tx.Lock(warehouseLockKey(w), noftl.Exclusive); err != nil {
		return err
	}
	if err := tx.Lock(districtLockKey(w, d), noftl.Exclusive); err != nil {
		return err
	}

	wh, wrid, err := t.getWarehouse(tx, w)
	if err != nil {
		return err
	}
	wh.YTD += amount
	if err := t.sch.Warehouse.Update(tx, wrid, wh.Encode()); err != nil {
		return err
	}

	dist, drid, err := t.getDistrict(tx, w, d)
	if err != nil {
		return err
	}
	dist.YTD += amount
	if err := t.sch.District.Update(tx, drid, dist.Encode()); err != nil {
		return err
	}

	// 60 % of payments select the customer by last name.
	var cust Customer
	var crid noftl.RID
	if t.r.uniform(1, 100) <= 60 {
		cust, crid, err = t.getCustomerByName(tx, w, d, t.r.lastNameRun(t.cfg.CustomersPerDistrict))
	} else {
		cust, crid, err = t.getCustomerByID(tx, w, d, t.r.customerID(t.cfg.CustomersPerDistrict))
	}
	if err != nil {
		return err
	}
	if err := tx.Lock(customerLockKey(w, d, int(cust.CID)), noftl.Exclusive); err != nil {
		return err
	}
	cust.Balance -= amount
	cust.YTDPayment += amount
	cust.PaymentCnt++
	if cust.Credit == "BC" {
		cust.Data = fmt.Sprintf("%d %d %d %d %d %d|%s", cust.CID, cust.DID, cust.WID, d, w, amount, cust.Data)
		if len(cust.Data) > 250 {
			cust.Data = cust.Data[:250]
		}
	}
	if err := t.sch.Customer.Update(tx, crid, cust.Encode()); err != nil {
		return err
	}

	hist := History{
		CID: cust.CID, CDID: cust.DID, CWID: cust.WID,
		DID: uint32(d), WID: uint32(w), Date: int64(tx.Now()), Amount: amount,
		Data: wh.Name + "    " + dist.Name,
	}
	_, err = t.sch.History.Insert(tx, hist.Encode())
	return err
}

// orderStatus implements the Order-Status transaction (clause 2.6).
func (t *terminal) orderStatus(tx *noftl.Tx) error {
	w := t.wID
	d := t.r.uniform(1, t.cfg.DistrictsPerWarehouse)

	var cust Customer
	var err error
	if t.r.uniform(1, 100) <= 60 {
		cust, _, err = t.getCustomerByName(tx, w, d, t.r.lastNameRun(t.cfg.CustomersPerDistrict))
	} else {
		cust, _, err = t.getCustomerByID(tx, w, d, t.r.customerID(t.cfg.CustomersPerDistrict))
	}
	if err != nil {
		return err
	}

	// Most recent order of the customer.
	var lastOrderRID noftl.RID
	found := false
	err = t.sch.OCustIdx.ScanPrefix(tx, orderCustPrefix(w, d, int(cust.CID)), func(_ []byte, rid noftl.RID) bool {
		lastOrderRID = rid
		found = true
		return true
	})
	if err != nil {
		return err
	}
	if !found {
		return nil // customer has no orders yet
	}
	orow, err := t.sch.Order.Get(tx, lastOrderRID)
	if err != nil {
		return err
	}
	ord, err := DecodeOrder(orow)
	if err != nil {
		return err
	}
	// Read its order lines.
	return t.sch.OLIdx.ScanPrefix(tx, orderLinePrefix(w, d, int(ord.OID)), func(_ []byte, rid noftl.RID) bool {
		if _, err := t.sch.OrderLine.Get(tx, rid); err != nil {
			return false
		}
		return true
	})
}

// delivery implements the Delivery transaction (clause 2.7), processing all
// districts of the warehouse in one database transaction (the deferred
// queue of the specification is folded into the transaction, as most
// research prototypes do).
func (t *terminal) delivery(tx *noftl.Tx) error {
	w := t.wID
	carrier := uint32(t.r.uniform(1, 10))
	for d := 1; d <= t.cfg.DistrictsPerWarehouse; d++ {
		if err := tx.Lock(deliveryLockKey(w, d), noftl.Exclusive); err != nil {
			return err
		}
		// Oldest undelivered order.
		var noKey []byte
		var noRID noftl.RID
		found := false
		err := t.sch.NOIdx.ScanPrefix(tx, newOrderPrefix(w, d), func(k []byte, rid noftl.RID) bool {
			noKey = append([]byte(nil), k...)
			noRID = rid
			found = true
			return false // only the first (oldest)
		})
		if err != nil {
			return err
		}
		if !found {
			continue // nothing to deliver in this district
		}
		norow, err := t.sch.NewOrder.Get(tx, noRID)
		if err != nil {
			return err
		}
		no, err := DecodeNewOrder(norow)
		if err != nil {
			return err
		}
		oID := int(no.OID)
		if err := t.sch.NewOrder.Delete(tx, noRID); err != nil {
			return err
		}
		if err := t.sch.NOIdx.Delete(tx, noKey); err != nil {
			return err
		}
		// Update the order with the carrier.
		orid, foundO, err := t.sch.OIdx.Lookup(tx, orderKey(w, d, oID))
		if err != nil || !foundO {
			return fmt.Errorf("delivery: order %d/%d/%d missing: %w", w, d, oID, err)
		}
		orow, err := t.sch.Order.Get(tx, orid)
		if err != nil {
			return err
		}
		ord, err := DecodeOrder(orow)
		if err != nil {
			return err
		}
		ord.CarrierID = carrier
		if err := t.sch.Order.Update(tx, orid, ord.Encode()); err != nil {
			return err
		}
		// Update every order line's delivery date and sum the amounts.
		var total int64
		var olRIDs []noftl.RID
		err = t.sch.OLIdx.ScanPrefix(tx, orderLinePrefix(w, d, oID), func(_ []byte, rid noftl.RID) bool {
			olRIDs = append(olRIDs, rid)
			return true
		})
		if err != nil {
			return err
		}
		for _, rid := range olRIDs {
			row, err := t.sch.OrderLine.Get(tx, rid)
			if err != nil {
				return err
			}
			ol, err := DecodeOrderLine(row)
			if err != nil {
				return err
			}
			total += ol.Amount
			ol.DeliveryDate = int64(tx.Now())
			if err := t.sch.OrderLine.Update(tx, rid, ol.Encode()); err != nil {
				return err
			}
		}
		// Credit the customer.
		if err := tx.Lock(customerLockKey(w, d, int(ord.CID)), noftl.Exclusive); err != nil {
			return err
		}
		cust, crid, err := t.getCustomerByID(tx, w, d, int(ord.CID))
		if err != nil {
			return err
		}
		cust.Balance += total
		cust.DeliveryCnt++
		if err := t.sch.Customer.Update(tx, crid, cust.Encode()); err != nil {
			return err
		}
	}
	return nil
}

// stockLevel implements the Stock-Level transaction (clause 2.8).
func (t *terminal) stockLevel(tx *noftl.Tx) error {
	w := t.wID
	d := t.dID
	threshold := uint32(t.r.uniform(10, 20))

	dist, _, err := t.getDistrict(tx, w, d)
	if err != nil {
		return err
	}
	nextO := int(dist.NextOID)
	lowO := nextO - 20
	if lowO < 1 {
		lowO = 1
	}
	// Collect the distinct items of the last 20 orders.  They are visited
	// in item order, not map order: the stock lookups' page accesses drive
	// buffer eviction and flash I/O, so a randomized order would make the
	// simulated metrics differ from run to run.
	var items []uint32
	err = t.sch.OLIdx.Scan(tx, orderLineKey(w, d, lowO, 0), orderLineKey(w, d, nextO, 0),
		func(_ []byte, rid noftl.RID) bool {
			row, err := t.sch.OrderLine.Get(tx, rid)
			if err != nil {
				return false
			}
			ol, err := DecodeOrderLine(row)
			if err != nil {
				return false
			}
			items = append(items, ol.ItemID)
			return true
		})
	if err != nil {
		return err
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	items = slices.Compact(items)
	// Count items whose stock is below the threshold.
	low := 0
	for _, itemID := range items {
		srid, found, err := t.sch.SIdx.Lookup(tx, stockKey(w, int(itemID)))
		if err != nil || !found {
			continue
		}
		row, err := t.sch.Stock.Get(tx, srid)
		if err != nil {
			return err
		}
		st, err := DecodeStock(row)
		if err != nil {
			return err
		}
		if st.Quantity < threshold {
			low++
		}
	}
	_ = low
	return nil
}
